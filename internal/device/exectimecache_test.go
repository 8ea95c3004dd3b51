package device

import (
	"testing"

	"shmt/internal/telemetry"
	"shmt/internal/vop"
)

// costDevice is a fakeDevice whose cost model actually depends on the shape,
// so memoization errors are observable.
type costDevice struct{ fakeDevice }

func (c *costDevice) ExecTime(op vop.Opcode, n int) float64 {
	return float64(op)*1e-6 + float64(n)*1e-9
}

func TestExecTimeCacheMemoizes(t *testing.T) {
	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	a := c.ExecTime(dev, vop.OpSobel, 1024)
	b := c.ExecTime(dev, vop.OpSobel, 1024)
	if a != b {
		t.Fatalf("memoized value changed: %g vs %g", a, b)
	}
	if a != dev.ExecTime(vop.OpSobel, 1024) {
		t.Fatal("cached value differs from the cost model")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Distinct shapes get distinct entries.
	c.ExecTime(dev, vop.OpSobel, 2048)
	c.ExecTime(dev, vop.OpGEMM, 1024)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestExecTimeCacheCapped streams more distinct shapes than the cap and
// checks the epoch flush: the map never exceeds DefaultExecTimeEntries and the
// eviction counter records the dropped entries (satellite: unbounded growth
// fix).
func TestExecTimeCacheCapped(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	base := telemetry.ExecCacheEvictions.Value()

	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	for elems := 1; elems <= DefaultExecTimeEntries+100; elems++ {
		c.ExecTime(dev, vop.OpAdd, elems)
		if c.Len() > DefaultExecTimeEntries {
			t.Fatalf("cache grew past the cap: %d", c.Len())
		}
	}
	// One flush happened: the 4097th insert dropped the full map.
	if got := telemetry.ExecCacheEvictions.Value() - base; got != DefaultExecTimeEntries {
		t.Fatalf("evictions = %d, want %d", got, DefaultExecTimeEntries)
	}
	// Values remain correct across the flush.
	if got, want := c.ExecTime(dev, vop.OpAdd, 7), dev.ExecTime(vop.OpAdd, 7); got != want {
		t.Fatalf("post-flush value %g, want %g", got, want)
	}
}

// TestExecTimeCacheSized checks the configurable entry cap: a small cap
// flushes early, and non-positive caps fall back to the default.
func TestExecTimeCacheSized(t *testing.T) {
	c := NewExecTimeCacheSized(8)
	dev := &costDevice{fakeDevice{name: "cpu"}}
	for elems := 1; elems <= 100; elems++ {
		c.ExecTime(dev, vop.OpAdd, elems)
		if c.Len() > 8 {
			t.Fatalf("cache grew past its configured cap: %d", c.Len())
		}
	}
	if got, want := c.ExecTime(dev, vop.OpAdd, 3), dev.ExecTime(vop.OpAdd, 3); got != want {
		t.Fatalf("post-flush value %g, want %g", got, want)
	}
	for _, bad := range []int{0, -5} {
		if d := NewExecTimeCacheSized(bad); d.max != DefaultExecTimeEntries {
			t.Fatalf("NewExecTimeCacheSized(%d).max = %d, want default %d", bad, d.max, DefaultExecTimeEntries)
		}
	}
}

func TestExecTimeCacheCounters(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	hits0, miss0 := telemetry.ExecCacheHits.Value(), telemetry.ExecCacheMisses.Value()

	c := NewExecTimeCache()
	dev := &costDevice{fakeDevice{name: "cpu"}}
	c.ExecTime(dev, vop.OpSobel, 64) // miss
	c.ExecTime(dev, vop.OpSobel, 64) // hit
	c.ExecTime(dev, vop.OpSobel, 64) // hit

	if got := telemetry.ExecCacheHits.Value() - hits0; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := telemetry.ExecCacheMisses.Value() - miss0; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}
