//go:build !amd64

package core

// Off amd64 there are no vector row kernels: the portable loops run.
const vectorCPU = false

// vectorRows mirrors the amd64 switch so the tests that flip it build here;
// setting it changes nothing.
var vectorRows = false

func sweepRows(row, sym []float64, nx, ny, stride, tabAt, xc, yc int, shift, m, below, pc, mx float64) (float64, int) {
	return sweepRowsGo(row, sym, nx, ny, stride, tabAt, xc, yc, shift, m, below, pc, mx)
}

// recenter subtracts a kernel-Bayes row's maximum from every entry, so the
// log weights stay bounded over long streams and the largest reads zero.
func recenter(row []float64, mx float64) { recenterGo(row, mx) }

func countAbove(row []float64, th float64) int { return countAboveGo(row, th) }

func countAtLeast(row []float64, th float64) int { return countAtLeastGo(row, th) }

func warmLines(s []float64) float64 { return warmLinesGo(s) }
