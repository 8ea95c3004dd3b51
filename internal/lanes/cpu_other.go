//go:build !amd64

package lanes

// The loops are amd64 assembly: elsewhere every row is off and only the
// twins run, so these are never called.
const avx, avx2, fma = false, false, false

func gemmPairAVX(c0, c1, a0, a1, b *float64, bstride, n, k int) { panic("lanes: no AVX") }
func roundF32AVX(p *float64, n int)                             { panic("lanes: no AVX") }
func roundTripAVX(p *float64, n int, scale, zp float64)         { panic("lanes: no AVX") }
func finiteRangeAVX(p *float64, n int) (lo, hi float64)         { panic("lanes: no AVX") }
func d1AVX2(dst, s, k []float64, c, v float64) int              { panic("lanes: no AVX") }
func d2AVX(dst, x []float64, c float64)                         { panic("lanes: no AVX") }
func cndAVX2(dst, d []float64, fma bool) int                    { panic("lanes: no AVX") }
func callAVX(dst, s, nd1, k, nd2 []float64, expRT float64)      { panic("lanes: no AVX") }
func gatherAVX2(dst []complex128, src []float64, rev []int32)   { panic("lanes: no AVX") }
func butterfly1AVX(x []complex128, w complex128)                { panic("lanes: no AVX") }
func butterflyAVX(x, w []complex128)                            { panic("lanes: no AVX") }
func splitAVX(re, im []float64, x []complex128)                 { panic("lanes: no AVX") }
func hypotAVX(dst, x, y []float64) int                          { panic("lanes: no AVX") }
