package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// jsonFloats formats floats as encoding/json does, through one Encoder so
// that ten million of them cost no allocation each.
type jsonFloats struct {
	buf bytes.Buffer
	enc *json.Encoder
}

func newJSONFloats() *jsonFloats {
	j := new(jsonFloats)
	j.enc = json.NewEncoder(&j.buf)
	return j
}

// text is valid until the next call.
func (j *jsonFloats) text(tb testing.TB, f float64) []byte {
	j.buf.Reset()
	if err := j.enc.Encode(f); err != nil {
		tb.Fatalf("%x: %v", math.Float64bits(f), err)
	}
	return bytes.TrimSuffix(j.buf.Bytes(), []byte("\n"))
}

// checkFloat holds appendFloat to encoding/json's bytes for f, appended to
// what dst already holds, and the bytes to reading back as f.
func checkFloat(tb testing.TB, j *jsonFloats, f float64) {
	tb.Helper()
	const prefix = "[1,"
	got := appendFloat([]byte(prefix), f)
	if string(got[:len(prefix)]) != prefix {
		tb.Fatalf("%x: the bytes before the number became %q", math.Float64bits(f), got[:len(prefix)])
	}
	got = got[len(prefix):]
	if want := j.text(tb, f); !bytes.Equal(got, want) {
		tb.Fatalf("%x: appendFloat wrote %s, encoding/json %s", math.Float64bits(f), got, want)
	}
	back, err := strconv.ParseFloat(string(got), 64)
	if err != nil || math.Float64bits(back) != math.Float64bits(f) {
		tb.Fatalf("%x: %s reads back as %x, %v", math.Float64bits(f), got, math.Float64bits(back), err)
	}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// TestAppendFloatMatchesJSON: byte for byte what encoding/json writes, for
// the boundary mantissas of every exponent, every power of ten and its
// neighbours, the kinds of value the workloads send and random bit patterns.
func TestAppendFloatMatchesJSON(t *testing.T) {
	j := newJSONFloats()
	both := func(f float64) {
		if finite(f) {
			checkFloat(t, j, f)
			checkFloat(t, j, -f)
		}
	}
	for _, f := range edgeFloats {
		both(f)
	}
	// Every binade: its power of two (the lower boundary is closer), the
	// float after it and its last.
	for exp := uint64(0); exp < 0x7ff; exp++ {
		for _, frac := range []uint64{0, 1, 1<<52 - 1} {
			both(math.Float64frombits(exp<<52 | frac))
		}
	}
	// Every power of ten — where the digit count and, at 1e-6 and 1e21, the
	// notation change — and the floats either side of it.
	for e := -330; e <= 310; e++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64) // 0 or +Inf beyond the range
		both(f)
		both(math.Nextafter(f, 0))
		both(math.Nextafter(f, math.Inf(1)))
	}
	// Integers around 2^53, where the exact-integer shortcut ends.
	for d := -4.0; d <= 4; d++ {
		both(1<<53 + d)
		both(1<<54 + 2*d)
	}

	rng := rand.New(rand.NewSource(23))
	families := 200_000
	random := 10_000_000
	if testing.Short() || raceDetector {
		families, random = 20_000, 1_000_000
	}
	for i := 0; i < families; i++ {
		both(math.Sin(rng.Float64()*100) + math.Sin(rng.Float64()*100)) // the harness's tensors
		both(float64(rng.Intn(256)))                                    // an image
		both(float64(rng.Intn(256)) / 255)                              // a normalised one
		both(float64(float32(rng.NormFloat64())))                       // a float32 result
		both(float64(rng.Intn(2_000_000)) / 1000)                       // thousandths
		both(float64(rng.Int63n(1 << 40)))                              // 40-bit integers
		both(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40)))
	}
	for i := 0; i < random; i++ {
		if f := math.Float64frombits(rng.Uint64()); finite(f) {
			checkFloat(t, j, f)
		}
	}
}

// FuzzAppendFloat: any finite bit pattern comes out as encoding/json writes it
// and reads back as itself.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, math.MaxFloat64,
		1<<53 - 2, 1 << 53, 1<<53 + 2, 9007199254740993,
		1e-6, 9.999999e-7, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 1e23, 0.3, -1.5, 255,
	} {
		f.Add(math.Float64bits(x))
	}
	j := newJSONFloats()
	f.Fuzz(func(t *testing.T, b uint64) {
		if x := math.Float64frombits(b); finite(x) {
			checkFloat(t, j, x)
		}
	})
}

// TestPow10Table recomputes every entry of the table built at init with
// math/big, by arithmetic of its own: the 128 leading bits of 10^k,
// truncated, exact for 0 … pow10ExactMax and nowhere else. Entries written
// out by hand pin a few of them, so the init and this recomputation cannot
// share a mistake.
func TestPow10Table(t *testing.T) {
	if len(pow10) != pow10Max-pow10Min+1 {
		t.Fatalf("%d entries for 1e%d … 1e%d", len(pow10), pow10Min, pow10Max)
	}
	for k, want := range map[int][2]uint64{
		-292: {0xff77b1fcbebcdc4f, 0x25e8e89c13bb0f7a},
		-1:   {0xcccccccccccccccc, 0xcccccccccccccccc},
		0:    {0x8000000000000000, 0x0000000000000000},
		55:   {0xd0cf4b50cfe20765, 0xfff4b4e3f741cf6d},
		56:   {0x82818f1281ed449f, 0xbff8f10e7a8921a4},
		324:  {0x9e19db92b4e31ba9, 0x6c07a2c26a8346d1},
	} {
		if got := pow10[k-pow10Min]; got != want {
			t.Errorf("1e%d = {%#016x, %#016x}, want {%#016x, %#016x}", k, got[0], got[1], want[0], want[1])
		}
	}
	// Schubfach asks for 10^-k, k = floor(log10 2^q) (or of ¾·2^q), over every
	// binary exponent q of a float64.
	for _, q := range []int{-1074, 971} {
		if k := q * 1262611 >> 22; -k < pow10Min || -k > pow10Max {
			t.Fatalf("q = %d needs 1e%d, outside the table", q, -k)
		}
	}
	one, ten := big.NewInt(1), big.NewInt(10)
	for k := pow10Min; k <= pow10Max; k++ {
		// 10^k to 1300 binary places — more than 128 significant bits even of
		// 1e-292 — and then its leading 128 bits.
		v := new(big.Int).Lsh(one, 1300)
		rem := new(big.Int)
		if p := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil); k >= 0 {
			v.Mul(v, p)
		} else {
			v.QuoRem(v, p, rem)
		}
		drop := uint(v.BitLen() - 128)
		want := new(big.Int).Rsh(v, drop)
		exact := rem.Sign() == 0 && new(big.Int).Lsh(want, drop).Cmp(v) == 0
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[k-pow10Min][0]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10[k-pow10Min][1]))
		if got.Cmp(want) != 0 {
			t.Errorf("1e%d: table has %x, math/big %x", k, got, want)
		}
		if exact != (k >= 0 && k <= pow10ExactMax) {
			t.Errorf("1e%d: exact is %v, pow10ExactMax = %d", k, exact, pow10ExactMax)
		}
		// The writer rounds an inexact entry up by adding one, which must not
		// carry out of 128 bits.
		if got.Add(got, one).BitLen() != 128 {
			t.Errorf("1e%d: rounding up overflows", k)
		}
	}
}
