package workload

import (
	"testing"

	"shmt/internal/tensor"
)

func TestUniformBoundsAndDeterminism(t *testing.T) {
	a := Uniform(32, 32, -2, 3, 7)
	for _, v := range a.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("value %g outside [-2,3)", v)
		}
	}
	b := Uniform(32, 32, -2, 3, 7)
	if !a.Equal(b) {
		t.Fatal("same seed should reproduce")
	}
	c := Uniform(32, 32, -2, 3, 8)
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
}

func TestMixedDeterminism(t *testing.T) {
	a := Mixed(128, 128, Profile{}, 3)
	b := Mixed(128, 128, Profile{}, 3)
	if !a.Equal(b) {
		t.Fatal("same seed should reproduce")
	}
}

func TestMixedHasCriticalityStructure(t *testing.T) {
	// With a high critical fraction, per-tile ranges must be bimodal: some
	// tiles near the background range (~1), some several times wider.
	m := Mixed(512, 512, Profile{CriticalFraction: 0.5, TileSize: 128}, 11)
	var wide, narrow int
	for ti := 0; ti < 4; ti++ {
		for tj := 0; tj < 4; tj++ {
			blk, err := tensor.CopyOut(m, tensor.Region{Row: ti * 128, Col: tj * 128, Height: 128, Width: 128})
			if err != nil {
				t.Fatal(err)
			}
			r := tensor.Summarize(blk.Data).Range()
			if r > 3 {
				wide++
			} else {
				narrow++
			}
		}
	}
	if wide == 0 || narrow == 0 {
		t.Fatalf("no criticality structure: wide=%d narrow=%d", wide, narrow)
	}
}

func TestMixedZeroCriticalFractionDefaults(t *testing.T) {
	// Zero profile falls back to the defaults (fraction 0.25). With enough
	// tiles, some hot corners appear and widen the global range beyond the
	// unit background.
	m := Mixed(512, 512, Profile{TileSize: 64}, 5)
	if tensor.Summarize(m.Data).Range() <= 1.5 {
		t.Fatal("default profile should include critical swings")
	}
}

func TestMixedSmoothAcrossTileBoundaries(t *testing.T) {
	// The amplitude field is bilinear, so values just across a tile border
	// should not jump by more than the background spread plus a small swing
	// delta — no hard discontinuities that would poison halo calibration.
	m := Mixed(512, 512, Profile{CriticalFraction: 0.9, TileSize: 128}, 13)
	maxJump := 0.0
	for i := 0; i < 512; i++ {
		a, b := m.At(i, 127), m.At(i, 128) // across the first vertical border
		if d := a - b; d > maxJump {
			maxJump = d
		} else if -d > maxJump {
			maxJump = -d
		}
	}
	// Background noise spans 1; the smooth swing adds only a tiny delta per
	// pixel. Anything over ~2 would indicate a discontinuous field.
	if maxJump > 2 {
		t.Fatalf("discontinuity across tile border: %g", maxJump)
	}
}

func TestImageRangeAndDeterminism(t *testing.T) {
	a := Image(128, 128, 21)
	for _, v := range a.Data {
		if v < 0 || v > 255 {
			t.Fatalf("pixel %g outside [0,255]", v)
		}
	}
	b := Image(128, 128, 21)
	if !a.Equal(b) {
		t.Fatal("same seed should reproduce")
	}
}

func TestImageHasEdges(t *testing.T) {
	m := Image(256, 256, 4)
	// At least one strong horizontal discontinuity should exist (rectangle
	// borders), which is what gives the edge detectors their sparse output.
	var maxJump float64
	for i := 0; i < 256; i++ {
		for j := 1; j < 256; j++ {
			d := m.At(i, j) - m.At(i, j-1)
			if d < 0 {
				d = -d
			}
			if d > maxJump {
				maxJump = d
			}
		}
	}
	if maxJump < 20 {
		t.Fatalf("no sharp edges found (max jump %g)", maxJump)
	}
}
