package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowPaths lists the row kernels this machine runs: the vector kernels
// where the CPU has them, and always the portable loops.
func rowPaths() []bool {
	if vectorCPU {
		return []bool{true, false}
	}
	return []bool{false}
}

func rowPathName(vector bool) string {
	if vector {
		return "vector"
	}
	return "portable"
}

// withRowPath runs fn with the row kernels switched to vector (true) or the
// portable loops (false), and switches back after, also when fn fails.
func withRowPath(vector bool, fn func()) {
	saved := vectorRows
	vectorRows = vector
	defer func() { vectorRows = saved }()
	fn()
}

// forRowPaths runs fn as one subtest per row path.
func forRowPaths(t *testing.T, fn func(t *testing.T)) {
	for _, vector := range rowPaths() {
		t.Run(rowPathName(vector), func(t *testing.T) {
			withRowPath(vector, func() { fn(t) })
		})
	}
}

var (
	negZero = math.Copysign(0, -1)
	// kernelValues are the entries and thresholds FuzzRowKernels draws: both
	// zeros, values a log weight cancels to a zero, ties, a denormal, the
	// infinities and a NaN.
	kernelValues = [...]float64{0, negZero, -1, -0.5, math.Ln2, -math.Ln2, 2 * math.Ln2, 1, 3.25, -7.25, 1e-300, -1e-300, 5e-324, math.Inf(1), math.Inf(-1), math.NaN()}
	// kernelWeights are the log weights a table holds: ≤ 0, the product
	// kernel's −0 at distance zero included.
	kernelWeights = [...]float64{0, negZero, -math.Ln2, -2 * math.Ln2, -1, -0.75, math.Log(2.0 / 3)}
	// kernelStarts are the maxima a sweep can be handed: the −∞ Kernel.sweep
	// starts from instead of a zero or NaN centre, both zeros, finite values
	// either side of them, and a NaN.
	kernelStarts = [...]float64{math.Inf(-1), 0, negZero, -0.5, 1, -1e-300, math.NaN()}
	kernelShifts = [...]float64{0, negZero, -1, math.Ln2, 1e300, -0.5}
)

// kernelCase is one call of the sweep kernel: an nx×ny row, the weight
// table and where each grid row's weights start in it, the centre that
// splits the count between below and pc, a shift, a scale and the
// incoming maximum.
type kernelCase struct {
	row, sym                      []float64
	nx, ny, stride, tabAt, xc, yc int
	shift, m, below, pc, mx       float64
}

func (kc kernelCase) String() string {
	return fmt.Sprintf("%dx%d row %v, table %v (stride %d from %d), centre (%d, %d), below %v pc %v shift %v m %v mx %v",
		kc.nx, kc.ny, kc.row, kc.sym, kc.stride, kc.tabAt, kc.xc, kc.yc, kc.below, kc.pc, kc.shift, kc.m, kc.mx)
}

// segmentCase is the sweep kernel over one run of cells: a 1×n row whose
// centre is its first cell, so every cell counts against th.
func segmentCase(seg, tab []float64, th, shift, m, mx float64) kernelCase {
	return kernelCase{row: seg, sym: tab, nx: 1, ny: len(seg), stride: len(seg), shift: shift, m: m, below: th, pc: th, mx: mx}
}

// rowKernelCase builds one FuzzRowKernels input. geo picks the grid: 1 to
// 4 grid rows of n/rows cells (n ≤ 70), the centre, the table's stride and
// offset. The entries are raw float64 bits when data asks for them, else
// drawn from kernelValues, the two thresholds and the floats beside them;
// the weights are drawn from kernelWeights.
func rowKernelCase(n, geo, th, start, shift uint8, m uint16, data []byte) kernelCase {
	n %= 71
	kc := kernelCase{nx: 1 + int(geo%4), m: 1}
	if kc.nx > int(n) {
		kc.nx = max(1, int(n))
	}
	kc.ny = int(n) / kc.nx
	kc.xc, kc.yc = int(geo>>2)%kc.nx, int(geo>>4)%(kc.ny+1)
	kc.stride, kc.tabAt = kc.ny+int(geo>>6), int(geo>>7)
	kc.below = kernelValues[int(th)%len(kernelValues)]
	kc.pc = kernelValues[int(th)/len(kernelValues)%len(kernelValues)]
	kc.shift = kernelShifts[int(shift)%len(kernelShifts)]
	kc.mx = kernelStarts[int(start)%len(kernelStarts)]
	if m > 1 {
		kc.m = float64(m)
	}
	vals := append(kernelValues[:], kc.below, kc.pc, math.Nextafter(kc.below, math.Inf(1)), math.Nextafter(kc.pc, math.Inf(-1)))
	byteAt := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	kc.row = make([]float64, kc.nx*kc.ny)
	raw := len(data) >= 8*len(kc.row)+1 && data[0]&1 == 1
	for i := range kc.row {
		if raw {
			kc.row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
		} else {
			kc.row[i] = vals[int(byteAt(i))%len(vals)]
		}
	}
	kc.sym = make([]float64, max(kc.xc, kc.nx-1-kc.xc)*kc.stride+kc.tabAt+kc.ny)
	for i := range kc.sym {
		kc.sym[i] = kernelWeights[int(byteAt(i)>>3)%len(kernelWeights)]
	}
	return kc
}

// sameKernelBits reports where two row kernels' results first differ, ""
// when they agree bit for bit.
func sameKernelBits(got, want []float64, gmx, wmx float64, gn, wn int) string {
	if j := sameBits(got, want); j >= 0 {
		return fmt.Sprintf("entry %d: %v (%#x) vs %v (%#x)", j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
	}
	if math.Float64bits(gmx) != math.Float64bits(wmx) {
		return fmt.Sprintf("maximum %v (%#x) vs %v (%#x)", gmx, math.Float64bits(gmx), wmx, math.Float64bits(wmx))
	}
	if gn != wn {
		return fmt.Sprintf("count %d vs %d", gn, wn)
	}
	return ""
}

// checkRowKernels runs one case through every row kernel on the vector path
// and on the portable one and compares the two by bits: the sweep's stored
// entries, maximum and count, the entries re-centred on mx, and the rank
// counts of the row against pc (>) and below (≥).
func checkRowKernels(t *testing.T, kc kernelCase) {
	t.Helper()
	run := func(vector bool) (stored, centred []float64, out float64, ahead, above, atLeast int) {
		withRowPath(vector, func() {
			stored = append([]float64(nil), kc.row...)
			out, ahead = sweepRows(stored, kc.sym, kc.nx, kc.ny, kc.stride, kc.tabAt, kc.xc, kc.yc, kc.shift, kc.m, kc.below, kc.pc, kc.mx)
			centred = append([]float64(nil), kc.row...)
			recenter(centred, kc.mx)
			above, atLeast = countAbove(kc.row, kc.pc), countAtLeast(kc.row, kc.below)
		})
		return
	}
	gs, gc, gmx, gn, ga, gl := run(true)
	ws, wc, wmx, wn, wa, wl := run(false)
	if d := sameKernelBits(gs, ws, gmx, wmx, gn, wn); d != "" {
		t.Fatalf("%v: sweep: %s", kc, d)
	}
	if d := sameKernelBits(gc, wc, 0, 0, ga, wa); d != "" {
		t.Fatalf("%v: recenter or countAbove: %s", kc, d)
	}
	if gl != wl {
		t.Fatalf("%v: countAtLeast %d vs %d", kc, gl, wl)
	}
}

// FuzzRowKernels: the vector row kernels store, return and count what the
// portable loops do, bit for bit, on rows of 0–70 cells in one to four
// grid rows, holding zeros of both signs in every lane, values equal to
// either threshold and next to it, infinities and NaNs, under every
// starting maximum (−∞, ±0, finite, NaN) and a scale of 1 or more. Off
// amd64, or without AVX2, both runs are the portable loops.
func FuzzRowKernels(f *testing.F) {
	// Zero signs. Byte 120 stores +0 + −0 = +0, 121 −0 + −0 = −0 and 0 is
	// +0 + +0: every lane's first zero differs from its neighbours'.
	lanes := []byte{121, 120, 120, 121, 120, 121, 121, 120, 121, 121}
	f.Add(uint8(10), uint8(0), uint8(0), uint8(0), uint8(0), uint16(1), lanes)
	f.Add(uint8(10), uint8(0), uint8(0), uint8(1), uint8(0), uint16(1), lanes)
	f.Add(uint8(10), uint8(0), uint8(0), uint8(2), uint8(0), uint16(1), lanes)
	f.Add(uint8(19), uint8(0), uint8(0), uint8(3), uint8(0), uint16(1), []byte{120, 121, 121, 121, 0})
	f.Add(uint8(16), uint8(0), uint8(0), uint8(0), uint8(0), uint16(7), lanes[:8])
	f.Add(uint8(24), uint8(1|1<<2|5<<4), uint8(0), uint8(0), uint8(1), uint16(1), lanes)
	f.Add(uint8(36), uint8(3|2<<2|9<<4|1<<6), uint8(1), uint8(0), uint8(0), uint16(3), lanes)
	// Ties with both thresholds, and the floats beside them.
	f.Add(uint8(23), uint8(2|1<<2|3<<4), uint8(2+5*16), uint8(3), uint8(2), uint16(1), []byte{16, 17, 18, 19, 16, 4, 17})
	f.Add(uint8(70), uint8(3|1<<2|7<<4|1<<7), uint8(5), uint8(4), uint8(5), uint16(1000), []byte{16, 17, 15, 13, 14, 10, 11, 12})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(1), []byte{})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(6), uint8(0), uint16(2), []byte{0, 1, 15})
	f.Fuzz(func(t *testing.T, n, geo, th, start, shift uint8, m uint16, data []byte) {
		checkRowKernels(t, rowKernelCase(n, geo, th, start, shift, m, data))
	})
}

// TestRowKernelsZeroLanes sweeps every pattern of +0, −0 and −1 over eight
// cells — both vector iterations' lanes — under each starting maximum, and
// random longer segments of zeros of both signs, through checkRowKernels.
func TestRowKernelsZeroLanes(t *testing.T) {
	vals := [3]float64{0, negZero, -1}
	seg, tab := make([]float64, 8), make([]float64, 8)
	for pat := 0; pat < 6561; pat++ { // 3^8
		for i, p := 0, pat; i < 8; i, p = i+1, p/3 {
			seg[i] = vals[p%3]
			tab[i] = kernelWeights[(pat+i)%2]
		}
		for _, mx := range kernelStarts {
			checkRowKernels(t, segmentCase(seg, tab, 0, 0, 1, mx))
		}
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(71)
		seg, tab := make([]float64, n), make([]float64, n)
		for i := range seg {
			seg[i] = vals[rng.Intn(3)]
			tab[i] = kernelWeights[rng.Intn(2)]
		}
		checkRowKernels(t, segmentCase(seg, tab, negZero, kernelShifts[rng.Intn(2)], float64(1+rng.Intn(3)), kernelStarts[rng.Intn(len(kernelStarts))]))
	}
}

// BenchmarkSegment times the sweep over one run of cells in L1 on each row
// path, at the grid-row widths the fleets see (16, 20) and wider. An op is two
// segments, one adding the log weights and one taking them off again, so
// the entries stay where they started; ns/cell is per segment cell.
func BenchmarkSegment(b *testing.B) {
	k := buildKernel(KernelHarmonic, 2, 16, 256)
	for _, n := range []int{16, 20, 64, 256} {
		tab := k.logRow(1, n/2, n)
		for _, vector := range rowPaths() {
			b.Run(fmt.Sprintf("cells=%d/%s", n, rowPathName(vector)), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				seg := make([]float64, n)
				for i := range seg {
					seg[i] = -rng.ExpFloat64() * 5
				}
				withRowPath(vector, func() {
					b.ResetTimer()
					for range b.N {
						sweepRows(seg, tab, 1, n, n, 0, 0, 0, 0, 1, -3, -3, math.Inf(-1))
						sweepRows(seg, tab, 1, n, n, 0, 0, 0, 0, -1, -3, -3, math.Inf(-1))
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*n*b.N), "ns/cell")
			})
		}
	}
}
