package likelihood

// The batched backend's vector bodies on amd64 (avx_amd64.s), installed when
// the CPU has AVX and the operating system saves its registers.
func init() {
	if hasAVX() {
		simd = &simdKernels{
			project:      projectAVX,
			projectTimes: projectTimesAVX,
			mat4:         mat4AVX,
			sumP:         sumPAVX,
			newtonDeriv:  newtonDerivAVX,
		}
	}
}

// hasAVX reports CPUID's AVX and OSXSAVE bits and, through XGETBV, that the
// operating system saves the XMM and YMM state (XCR0 bits 1 and 2).
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

//go:noescape
func projectAVX(p, src []float64, idx []int32, out []float64, ncat int)

//go:noescape
func projectTimesAVX(p, src []float64, idx []int32, a []float64, aIdx []int32, out []float64, ncat int)

//go:noescape
func mat4AVX(m *[ns][ns]float64, y, f []float64)

//go:noescape
func sumPAVX(fr *[ns]float64, v *[ns][ns]float64, x, f []float64)

//go:noescape
func newtonDerivAVX(tab, e0, e1, e2, l0, l1, l2 []float64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (eax, edx uint32)
