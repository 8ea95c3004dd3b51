package lanes

// GEMM4 adds rows a[0..3] of A times B into rows c[0..3] of C: every row of
// c is n long, every row of a k long, and row r of B is b[r*bstride:][:n].
// Each element is accumulated from its value in C in ascending k, so the
// result is the scalar triple loop's. A lane takes two rows of A at a time,
// their four k-steps of a block held as broadcasts, four columns of C per
// vector; each step is a multiply and then an add. It covers the whole
// 4-step blocks of k in the first n&^3 columns; the twin adds the rest.
func GEMM4(c, a [4][]float64, b []float64, bstride int) { gemm4(c, a, b, bstride, rowGEMM.on) }

func gemm4(c, a [4][]float64, b []float64, bstride int, lane bool) {
	n, kb := len(c[0])&^3, len(a[0])&^3
	if !lane || n == 0 || kb == 0 {
		gemmTile4(c, a, b, bstride, 0)
		return
	}
	for r := 0; r < 4; r += 2 {
		gemmPairAVX(&c[r][0], &c[r+1][0], &a[r][0], &a[r+1][0], &b[0], bstride, n, kb)
	}
	gemmTile4(c, a, b, bstride, n)
}

// gemmTile4 is GEMM4's twin: it accumulates c, but for the whole 4-step
// blocks of k in columns below j0, which the lanes have added. The register
// tile is 4 rows by 4 steps of k: each pass over j loads four C elements,
// adds sixteen products in ascending k and stores them back, reading each
// row of B once for the four rows of A. Re-slicing every row to the same
// length lets the compiler drop the bounds checks from the j loops.
func gemmTile4(c, a [4][]float64, b []float64, bstride, j0 int) {
	a0, a1, a2, a3 := a[0], a[1][:len(a[0])], a[2][:len(a[0])], a[3][:len(a[0])]
	c0 := c[0]
	n := len(c0)
	c1, c2, c3 := c[1][:n], c[2][:n], c[3][:n]
	t0 := c0[j0:]
	m := len(t0)
	t1, t2, t3 := c1[j0:][:m], c2[j0:][:m], c3[j0:][:m]
	brow := func(k int) []float64 { return b[k*bstride:][:n] }
	k := 0
	for ; k+4 <= len(a0); k += 4 {
		b0, b1, b2, b3 := brow(k)[j0:][:m], brow(k + 1)[j0:][:m], brow(k + 2)[j0:][:m], brow(k + 3)[j0:][:m]
		x0, x1, x2, x3 := a0[k:k+4], a1[k:k+4], a2[k:k+4], a3[k:k+4]
		for j := range t0 {
			p, q, s, t := b0[j], b1[j], b2[j], b3[j]
			t0[j] = t0[j] + float64(x0[0]*p) + float64(x0[1]*q) + float64(x0[2]*s) + float64(x0[3]*t)
			t1[j] = t1[j] + float64(x1[0]*p) + float64(x1[1]*q) + float64(x1[2]*s) + float64(x1[3]*t)
			t2[j] = t2[j] + float64(x2[0]*p) + float64(x2[1]*q) + float64(x2[2]*s) + float64(x2[3]*t)
			t3[j] = t3[j] + float64(x3[0]*p) + float64(x3[1]*q) + float64(x3[2]*s) + float64(x3[3]*t)
		}
	}
	for ; k < len(a0); k++ {
		bk := brow(k)
		v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
		for j, p := range bk {
			c0[j] += float64(v0 * p)
			c1[j] += float64(v1 * p)
			c2[j] += float64(v2 * p)
			c3[j] += float64(v3 * p)
		}
	}
}

// runGEMM multiplies a 4×7 A drawn from y by a 7×n B drawn from x into a
// 4×n C that starts as x.
func runGEMM(x, y []float64, lane bool) []float64 {
	const k = 7
	n := len(x)
	if n == 0 {
		return nil
	}
	flat := make([]float64, 4*n+4*k+k*n)
	var c, a [4][]float64
	for r := range c {
		c[r] = flat[r*n : (r+1)*n]
		copy(c[r], x)
		a[r] = flat[4*n+r*k : 4*n+(r+1)*k]
		for i := range a[r] {
			a[r][i] = y[(r*k+i)%n]
		}
	}
	b := flat[4*n+4*k:]
	for i := range b {
		b[i] = x[(i+i/n)%n]
	}
	gemm4(c, a, b, n, lane)
	return flat[:4*n]
}
