package lanes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// specials are the values every lane must treat as its twin does: NaNs
// (quiet, with a payload, signalling, negative), ±Inf, ±0, subnormals,
// ±MaxFloat64, values past float32's range and ties of its rounding, INT8
// ties, powers of two and √2/2 (archLog's reduction edges), d past 37.6 and
// 38.6 (Exp's denormal and zero results in CND), the CND witness, and
// magnitudes whose products overflow or underflow.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xfff8000000000000), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -3e-320, math.MaxFloat64, -math.MaxFloat64,
	3.5e38, -1e39, 1e-46, 1 + 0x1p-24, 0.5, 2.5, -2.5, 126.5, 4, 1, 0.7071067811865476,
	37.7, -38.5, 40, -1e155, cndWitness, 1e300, -1e-300,
}

// lanesCase is one row of the differential test, with the values its
// ordinary lanes draw: inside the lane's domain, so most blocks run in
// lanes, and specials then put each block out of it in turn.
type lanesCase struct {
	row  *row
	draw func(*rand.Rand) float64
}

func normal(rng *rand.Rand) float64   { return rng.NormFloat64() }
func positive(rng *rand.Rand) float64 { return 0.1 + 4*rng.Float64() }
func wide(rng *rand.Rand) float64     { return 3 * rng.NormFloat64() }

var lanesCases = []lanesCase{
	{rowGEMM, normal}, {rowF32, normal}, {rowInt8, wide}, {rowRange, normal},
	{rowD1, positive}, {rowD2, normal}, {rowCND, wide}, {rowCall, normal},
	{rowGather, normal}, {rowButterfly, normal}, {rowSplit, normal}, {rowHypot, normal},
}

func TestEveryRowHasACase(t *testing.T) {
	if len(lanesCases) != len(table) {
		t.Fatalf("%d cases for %d rows", len(lanesCases), len(table))
	}
	for i, c := range lanesCases {
		if c.row != table[i] {
			t.Fatalf("case %d is %s, row %d is %s", i, c.row.name, i, table[i].name)
		}
	}
}

// TestRowsOnWhereSupported: every row whose CPU features the host has is
// on, so a lane that disagrees with its twin at init fails here and does
// not just go slow.
func TestRowsOnWhereSupported(t *testing.T) {
	for _, r := range table {
		if r.hw && !r.on {
			t.Errorf("%s: the host has %s but the row is off", r.name, r.needs)
		}
	}
	t.Logf("avx %v, avx2 %v, fma %v; CND in math.Exp's FMA branch: %v", avx, avx2, fma, cndFMA)
}

// offset returns a copy of v that starts at an odd element of its backing
// array when off is 1.
func offset(v []float64, off int) []float64 {
	buf := make([]float64, len(v)+off)
	copy(buf[off:], v)
	return buf[off:]
}

// check runs r on x and y both ways and fails on the first difference.
func check(t *testing.T, r *row, what string, x, y []float64, off int) {
	t.Helper()
	lane := r.run(offset(x, off), offset(y, off), true)
	twin := r.run(offset(x, off), offset(y, off), false)
	if !same(r.payload, lane, twin) {
		for i := range twin {
			if i < len(lane) && !same(r.payload, lane[i:i+1], twin[i:i+1]) {
				t.Fatalf("%s %s off=%d: [%d] lane %v (%#x), twin %v (%#x)\nx %v\ny %v", r.name, what, off, i,
					lane[i], math.Float64bits(lane[i]), twin[i], math.Float64bits(twin[i]), x, y)
			}
		}
		t.Fatalf("%s %s off=%d: lane wrote %d values, twin %d", r.name, what, off, len(lane), len(twin))
	}
}

// TestRowsMatchTwins holds every row's lanes to its twin by Float64bits
// (a NaN matching any NaN where the row does not promise payloads) at
// every length 0–67, starting at even and odd elements, with each special
// in each lane of a block, in either operand; then on 64Ki ordinary draws,
// where a fused or reordered step deep in a polynomial first shows.
func TestRowsMatchTwins(t *testing.T) {
	for _, c := range lanesCases {
		if !c.row.on {
			t.Logf("%s is off on this host: only its twin runs", c.row.name)
			continue
		}
		rng := rand.New(rand.NewSource(int64(len(c.row.name))))
		for n := 0; n <= 67; n++ {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = c.draw(rng), c.draw(rng)
			}
			for off := 0; off < 2; off++ {
				check(t, c.row, fmt.Sprintf("n=%d", n), x, y, off)
				for si, s := range specials {
					for lane := 0; lane < 4 && lane < n; lane++ {
						i := lane + 4*(si%(1+(n-1-lane)/4)) // some block of the slice, that lane
						for _, v := range [][]float64{x, y} {
							keep := v[i]
							v[i] = s
							check(t, c.row, fmt.Sprintf("n=%d special %v at %d", n, s, i), x, y, off)
							v[i] = keep
						}
					}
				}
			}
		}
		x, y := make([]float64, 1<<16), make([]float64, 1<<16)
		for i := range x {
			x[i], y[i] = c.draw(rng), c.draw(rng)
		}
		check(t, c.row, "64Ki draws", x, y, 0)
	}
}

// FuzzLanes runs every row both ways on arbitrary bit patterns: the input's
// bytes, eight to a float64, alternate between x and y, and its first byte
// picks the start's parity.
func FuzzLanes(f *testing.F) {
	seed := []byte{0}
	for i, v := range specials {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(float64(i)-7.5))
	}
	f.Add(seed)
	f.Add(seed[:1+16*5])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		off := int(data[0] & 1)
		data = data[1:]
		n := len(data) / 16
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			y[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		for _, r := range table {
			if r.on {
				check(t, r, "fuzzed", x, y, off)
			}
		}
	})
}

// expEmulated is math.Exp's amd64 sequence (archExp) in Go, in either
// branch, for finite x that need neither of its denormal and overflow
// paths.
func expEmulated(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	coef := []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1}
	e := int32(math.RoundToEven(log2e * x))
	k := float64(e)
	var r, p float64
	if fused {
		r = math.FMA(-k, ln2L, math.FMA(-k, ln2U, x))
	} else {
		r = x - float64(ln2U*k) - float64(ln2L*k)
	}
	r *= 0.0625
	p = 2.4801587301587301587e-5
	for _, c := range coef {
		if fused {
			p = math.FMA(p, r, c)
		} else {
			p = float64(p*r) + c
		}
	}
	r *= p
	for i := 0; i < 4; i++ {
		if fused && i == 3 {
			r = math.FMA(r, r+2, 1)
		} else {
			r *= r + 2
		}
	}
	if !fused {
		r++
	}
	return r * math.Float64frombits(uint64(int64(e)+0x3ff)<<52)
}

// TestExpBranch: the witnesses are what the two branches of archExp give,
// the branch the lanes run is the one math.Exp runs, and GODEBUG's
// cpu.fma=off, which math honours and CPUID does not show, moves both.
func TestExpBranch(t *testing.T) {
	if got := math.Float64bits(expEmulated(expWitness, false)); got != expWitnessPlain {
		t.Fatalf("plain branch: Exp(%v) = %#x, witness %#x", expWitness, got, uint64(expWitnessPlain))
	}
	if got := math.Float64bits(expEmulated(expWitness, true)); got != expWitnessFMA {
		t.Fatalf("FMA branch: Exp(%v) = %#x, witness %#x", expWitness, got, uint64(expWitnessFMA))
	}
	x := float64(-0.5*cndWitness) * cndWitness
	if expEmulated(x, false) == expEmulated(x, true) {
		t.Fatalf("CND witness %v: Exp(%v) is the same in both branches", cndWitness, x)
	}
	if !avx {
		return // math.Exp is not the amd64 sequence here
	}
	if !cndExpKnown {
		t.Fatalf("math.Exp(%v) = %#x, neither branch's witness", expWitness, math.Float64bits(math.Exp(expWitness)))
	}
	off := strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off")
	if want := fma && !off; cndFMA != want {
		t.Fatalf("CND lanes in the FMA branch: %v; CPU FMA %v, GODEBUG cpu.fma=off %v", cndFMA, fma, off)
	}
	for i := 0; i < 2000; i++ {
		x := -30 + float64(i)*0.037
		if got, want := math.Exp(x), expEmulated(x, cndFMA); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("math.Exp(%v) = %#x, emulated branch %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestLanesUnderFMAOff re-runs the lanes' tests in a child process under
// GODEBUG=cpu.fma=off, where math.Exp takes its plain branch on an FMA host.
func TestLanesUnderFMAOff(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("this is the child")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestExpBranch|TestRowsOnWhereSupported|TestRowsMatchTwins)$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestRowsMatchTwins") {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
