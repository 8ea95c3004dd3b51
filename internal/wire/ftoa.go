package wire

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, as digits with a point for
// 1e-6 ≤ |f| < 1e21 and as d.ddde±x (no leading zero in the exponent)
// outside it; zero is 0 or -0. The bytes are encoding/json's for every finite
// float64 — scatter's splicing rests on that (DESIGN.md, "Wire format") —
// but the digits come from Schubfach (Giulietti, "The Schubfach way to render
// doubles", 2020) in place of strconv's Ryū-style search plus its digit
// buffer: one table look-up, three 64×128-bit multiplications, at most two
// candidates tested.
//
// It makes sure of floatRoom spare bytes before it writes, more than the
// maxFloatLen it can add, because it copies digits seventeen at a time and
// lets the copies run past the number's end.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	dst = slices.Grow(dst, floatRoom)
	if b>>63 != 0 {
		dst = append(dst, '-')
	}
	frac, exp := b&(1<<52-1), int(b>>52)&0x7ff
	if exp == 0 && frac == 0 {
		return append(dst, '0')
	}
	d, k := shortest(frac, exp)

	// d's digits end at buf[digitsEnd]; what follows is there to be copied
	// from, not read.
	const digitsEnd = 20
	var buf [digitsEnd + 20]byte
	i := digitsEnd
	if d < 1e8 {
		for d >= 100 {
			r := d % 100 * 2
			d /= 100
			i -= 2
			buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		}
		if d >= 10 {
			i -= 2
			buf[i], buf[i+1] = digitPairs[d*2], digitPairs[d*2+1]
		} else {
			i--
			buf[i] = '0' + byte(d)
		}
	} else {
		// Nine to seventeen digits: two groups of eight, which do not wait
		// for each other's divisions, and the seventeenth.
		hi := d / 1e8
		put8((*[8]byte)(buf[digitsEnd-8:]), uint32(d%1e8))
		put8((*[8]byte)(buf[digitsEnd-16:]), uint32(hi%1e8))
		buf[digitsEnd-17] = '0' + byte(hi/1e8)
		i = digitsEnd - 17
		for buf[i] == '0' {
			i++
		}
	}
	end := digitsEnd
	for buf[end-1] == '0' {
		end--
	}
	// |f| = 0.d₁d₂…dₙ × 10^point
	n, point := end-i, digitsEnd-i+k
	digits := buf[i:]
	out := dst[len(dst) : len(dst)+floatRoom-1]

	switch {
	case point > 21 || point < -5: // d.ddde±x
		out[0] = digits[0]
		w := 1
		if n > 1 {
			out[1] = '.'
			*(*[16]byte)(out[2:]) = *(*[16]byte)(digits[1:])
			w = n + 1
		}
		x := point - 1
		out[w], out[w+1] = 'e', '+'
		if x < 0 {
			out[w+1] = '-'
			x = -x
		}
		w += 2
		switch {
		case x >= 100:
			out[w] = '0' + byte(x/100)
			x %= 100
			w++
			fallthrough // both of the digits left, a leading zero too
		case x >= 10:
			out[w], out[w+1] = digitPairs[x*2], digitPairs[x*2+1]
			w += 2
		default:
			out[w] = '0' + byte(x)
			w++
		}
		return dst[:len(dst)+w]
	case point <= 0: // 0.000ddd
		*(*[8]byte)(out) = [8]byte{'0', '.', '0', '0', '0', '0', '0', '0'}
		put17(out[2-point:], digits)
		return dst[:len(dst)+2-point+n]
	case point < n: // dd.ddd
		put17(out, digits)
		put17(out[point+1:], digits[point:])
		out[point] = '.'
		return dst[:len(dst)+n+1]
	default: // ddd000
		put17(out, digits)
		for j := n; j < point; j++ {
			out[j] = '0'
		}
		return dst[:len(dst)+point]
	}
}

const (
	// maxFloatLen is the longest text appendFloat writes:
	// -2.2250738585072014e-308.
	maxFloatLen = 24
	// floatRoom is the spare capacity appendFloat makes sure of: a sign,
	// sixteen digits with their point, and the last seventeen-byte copy.
	floatRoom = 40
)

// put17 copies the seventeen bytes at src, the most digits a float64 has, to
// dst.
func put17(dst, src []byte) {
	*(*[16]byte)(dst) = *(*[16]byte)(src)
	dst[16] = src[16]
}

// put8 writes x < 1e8 as eight digits.
func put8(p *[8]byte, x uint32) {
	hi, lo := x/1e4, x%1e4
	a, b, c, d := hi/100*2, hi%100*2, lo/100*2, lo%100*2
	p[0], p[1] = digitPairs[a], digitPairs[a+1]
	p[2], p[3] = digitPairs[b], digitPairs[b+1]
	p[4], p[5] = digitPairs[c], digitPairs[c+1]
	p[6], p[7] = digitPairs[d], digitPairs[d+1]
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortest returns the shortest decimal d·10^k that rounds to the positive
// float64 with fraction bits frac and biased exponent exp (not both zero, exp
// below 0x7ff), the closest to it among the shortest, the even one of two
// equally close. d may end in zeros.
func shortest(frac uint64, exp int) (d uint64, k int) {
	// The float is c·2^q.
	c, q := frac, 1-1075
	if exp != 0 {
		c, q = frac|1<<52, exp-1075
		if -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
			return c >> -q, 0 // an integer below 2^53 is its own shortest form
		}
	}
	// Its rounding interval, in quarters of a unit of c: [cbl, cbr] around cb.
	// Below a power of two the floats are half as far apart.
	cb := 4 * c
	cbl, cbr := cb-2, cb+2
	k = q * 1262611 >> 22 // floor(log10 2^q)
	if frac == 0 && exp > 1 {
		cbl = cb - 1
		k = (q*1262611 - 524031) >> 22 // floor(log10 ¾·2^q)
	}
	// Scale by 10^-k so that the interval holds an integer but not two
	// multiples of ten: v = c·2^q·10^-k, computed as c·2^h·g / 2^128 with g
	// the 128 leading bits of 10^-k rounded up, each product rounded to odd
	// so that comparisons against integers come out as for the exact value.
	h := uint(q + (-k*1741647)>>19 + 1) // q + floor(log2 10^-k) + 1: 1 … 4
	g := pow10[-k-pow10Min]
	if -k < 0 || -k > pow10ExactMax {
		var carry uint64
		g[1], carry = bits.Add64(g[1], 1, 0)
		g[0] += carry
	}
	vbl, vb, vbr := mulRoundOdd(g, cbl<<h), mulRoundOdd(g, cb<<h), mulRoundOdd(g, cbr<<h)
	// The interval's ends belong to it when c is even (ties round to even).
	lower, upper := vbl+c&1, vbr-c&1

	// v is in quarters as well: s = floor(v). A multiple of ten in the
	// interval is one digit shorter than anything else in it.
	s := vb / 4
	if s >= 10 {
		sp := s / 10 * 40
		below, above := lower <= sp, sp+40 <= upper
		if below != above {
			if above {
				sp += 40
			}
			return sp / 4, k
		}
	}
	// Otherwise s or s+1, whichever is in the interval; both: the closer.
	below, above := lower <= 4*s, 4*s+4 <= upper
	if below != above {
		if above {
			s++
		}
		return s, k
	}
	if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// mulRoundOdd returns the top 64 bits of the 192-bit product g·x, with the
// lowest bit set when any of the bits below them is: enough to order the
// exact product against any even integer.
func mulRoundOdd(g [2]uint64, x uint64) uint64 {
	h1, _ := bits.Mul64(g[1], x)
	h0, l0 := bits.Mul64(g[0], x)
	mid, carry := bits.Add64(l0, h1, 0)
	top := h0 + carry
	if mid > 1 {
		top |= 1
	}
	return top
}

// pow10 covers 1e-292 … 1e324, the powers shortest multiplies by (Schubfach
// scales c·2^q, −1074 ≤ q ≤ 971, by 10^−floor(log10 2^q)). A number parser
// built on Eisel–Lemire reads the same truncated entries and needs 1e-348 …
// 1e347: widening the two constants is all that takes.
const (
	pow10Min = -292
	pow10Max = 324
)

// pow10ExactMax is the last of the exact entries, 1e0 … 1e55 (5^55 fits 128
// bits). Every other one is less than the true value by a fraction of a unit
// in the last place, so adding one rounds it up.
const pow10ExactMax = 55

// pow10[k-pow10Min] is {hi, lo} of floor(10^k · 2^(127 − floor(log2 10^k))):
// the 128 leading bits of 10^k, truncated. The package computes it once, as
// it initialises, with math/big integer arithmetic alone (under a
// millisecond), so no table is copied from strconv or anywhere else.
var pow10 = pow10Table()

func pow10Table() (t [pow10Max - pow10Min + 1][2]uint64) {
	ten := big.NewInt(10)
	var b [16]byte
	for k := pow10Min; k <= pow10Max; k++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(max(k, -k))), nil)
		switch shift := p.BitLen() - 128; {
		case k < 0: // 10^k = 1/p: divide a power of two large enough to leave 128 bits
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(p.BitLen()+127)), p)
		case shift <= 0:
			p.Lsh(p, uint(-shift))
		default:
			p.Rsh(p, uint(shift))
		}
		p.FillBytes(b[:])
		t[k-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	return t
}
