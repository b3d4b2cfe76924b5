package core

// vectorCPU reports whether this machine runs the AVX2 row kernels: the CPU
// has AVX2 and POPCNT and the operating system saves the YMM registers.
var vectorCPU = detectAVX2()

// vectorRows selects the row kernels. It is vectorCPU; tests clear it to
// run the portable loops on the same machine.
var vectorRows = vectorCPU

func detectAVX2() bool {
	const (
		popcnt  = 1 << 23 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmOS   = 0b110   // XCR0: the OS saves the XMM and the YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// Implemented in rowpass_amd64.s.

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// sweepAVX2 is sweepRowsGo four cells an instruction, except for a maximum
// of zero: the lanes each keep their own first zero, and when those
// disagree in sign (mixed) which one comes back is not the scalar scan's
// (sweepRows settles it). It reads and writes wherever its arguments
// point: sweepRows checks them first.
//
//go:noescape
func sweepAVX2(row, sym []float64, nx, ny, stride, tabAt, xc, yc int, shift, m, below, pc, mx float64) (out float64, ahead int, mixed bool)

//go:noescape
func recenterAVX2(row []float64, mx float64)

//go:noescape
func countAboveAVX2(row []float64, th float64) int

//go:noescape
func countAtLeastAVX2(row []float64, th float64) int

//go:noescape
func prefetchLines(s []float64)

// sweepRows is sweepRowsGo (see there): on the AVX2 kernel when the row
// and the weight table hold every cell the arguments name, which the
// kernel does not check. Each lane does the scalar loop's arithmetic, so
// the stored entries and the count are sweepRowsGo's, and the maximum is
// too but for the sign of a zero: equal nonzero floats have equal bits.
// The scalar scan keeps the incoming mx if that was already zero — nothing
// beats a zero — and otherwise the first zero stored. Every lane holds the
// first zero it saw (or the incoming zero), so the kernel's zero is the
// scan's unless its lanes hold zeros of both signs: then the stored entries
// are searched for the first zero, in row order.
func sweepRows(row, sym []float64, nx, ny, stride, tabAt, xc, yc int, shift, m, below, pc, mx float64) (float64, int) {
	if !vectorRows || nx < 1 || ny < 0 || nx*ny > len(row) || xc < 0 || xc >= nx || yc < 0 || yc > ny ||
		stride < 0 || tabAt < 0 || max(xc, nx-1-xc)*stride+tabAt+ny > len(sym) {
		return sweepRowsGo(row, sym, nx, ny, stride, tabAt, xc, yc, shift, m, below, pc, mx)
	}
	out, ahead, mixed := sweepAVX2(row, sym, nx, ny, stride, tabAt, xc, yc, shift, m, below, pc, mx)
	if mixed {
		out = firstZero(row[:nx*ny])
	}
	return out, ahead
}

// recenter subtracts a kernel-Bayes row's maximum from every entry, so the
// log weights stay bounded over long streams and the largest reads zero.
func recenter(row []float64, mx float64) {
	if vectorRows {
		recenterAVX2(row, mx)
		return
	}
	recenterGo(row, mx)
}

// countAbove returns how many entries of row are > th; a NaN is not.
func countAbove(row []float64, th float64) int {
	if vectorRows {
		return countAboveAVX2(row, th)
	}
	return countAboveGo(row, th)
}

// countAtLeast returns how many entries of row are ≥ th; a NaN is not.
func countAtLeast(row []float64, th float64) int {
	if vectorRows {
		return countAtLeastAVX2(row, th)
	}
	return countAtLeastGo(row, th)
}

// warmLines asks for every cache line of s (s starts a line) to be brought
// into the cache, without waiting for any of them: one PREFETCHT0 a line.
// It reads nothing the program can see and returns 0.
func warmLines(s []float64) float64 {
	if vectorRows {
		prefetchLines(s)
		return 0
	}
	return warmLinesGo(s)
}
