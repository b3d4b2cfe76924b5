package core

// The three passes a re-scored pair makes over its matrix row — the sweep,
// the re-centring and the rank count — and Warm's walk over a row's cache
// lines, in portable Go. On amd64 with AVX2 the same passes run as vector
// kernels (rowpass_amd64.s) that store the same bits and return the same
// answers; these loops are what every other machine runs and the oracle the
// kernels are tested against.

// sweepRowsGo is Kernel.sweep's pass over an nx×ny row, row-major. The log
// weights of grid row x are the ny entries of sym from |x−xc|·stride +
// tabAt; each cell's p is counted against below in the grid rows before
// xc, against pc in those after it, and in row xc against below before
// column yc and pc from it on. It returns the maximum carried from mx and
// the count.
func sweepRowsGo(row, sym []float64, nx, ny, stride, tabAt, xc, yc int, shift, m, below, pc, mx float64) (float64, int) {
	ahead, n := 0, 0
	for x := 0; x < nx; x++ {
		at := absInt(x-xc)*stride + tabAt
		seg, tab := row[x*ny:x*ny+ny], sym[at:at+ny]
		switch {
		case x < xc:
			mx, n = segmentGo(seg, tab, shift, m, below, mx)
		case x > xc:
			mx, n = segmentGo(seg, tab, shift, m, pc, mx)
		default: // the centre's grid row is cut at the centre
			mx, n = segmentGo(seg[:yc], tab[:yc], shift, m, below, mx)
			ahead += n
			mx, n = segmentGo(seg[yc:], tab[yc:], shift, m, pc, mx)
		}
		ahead += n
	}
	return mx, ahead
}

// segmentGo is the sweep's loop over one run of cells whose log weights are
// tab: it shifts, counts p > th, adds m·t, stores and carries the maximum
// mx, four cells an iteration.
func segmentGo(seg, tab []float64, shift, m, th, mx float64) (float64, int) {
	tab = tab[:len(seg)]
	ahead, i := 0, 0
	for ; i+4 <= len(seg); i += 4 {
		s, t := seg[i:i+4:i+4], tab[i:i+4:i+4]
		p0, p1, p2, p3 := s[0]-shift, s[1]-shift, s[2]-shift, s[3]-shift
		ahead += b2i(p0 > th) + b2i(p1 > th) + b2i(p2 > th) + b2i(p3 > th)
		v0, v1, v2, v3 := p0+m*t[0], p1+m*t[1], p2+m*t[2], p3+m*t[3]
		s[0], s[1], s[2], s[3] = v0, v1, v2, v3
		if v0 > mx {
			mx = v0
		}
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
	}
	for ; i < len(seg); i++ {
		p := seg[i] - shift
		ahead += b2i(p > th)
		v := p + m*tab[i]
		seg[i] = v
		if v > mx {
			mx = v
		}
	}
	return mx, ahead
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// recenterGo subtracts mx from every entry of row.
func recenterGo(row []float64, mx float64) {
	j := 0
	for ; j+4 <= len(row); j += 4 {
		r := row[j : j+4 : j+4]
		r[0], r[1], r[2], r[3] = r[0]-mx, r[1]-mx, r[2]-mx, r[3]-mx
	}
	for ; j < len(row); j++ {
		row[j] -= mx
	}
}

// countAboveGo returns how many entries of row are > th; a NaN is not.
func countAboveGo(row []float64, th float64) int {
	n := 0
	for _, p := range row {
		n += b2i(p > th)
	}
	return n
}

// countAtLeastGo returns how many entries of row are ≥ th; a NaN is not.
func countAtLeastGo(row []float64, th float64) int {
	n := 0
	for _, p := range row {
		n += b2i(p >= th)
	}
	return n
}

// warmLinesGo loads one entry of each cache line of s (s starts a line) and
// returns their sum, so the compiler keeps the loads.
func warmLinesGo(s []float64) (sum float64) {
	const line = 8 // float64s per cache line
	for j := 0; j < len(s); j += line {
		sum += s[j]
	}
	return sum
}

// firstZero is what a scalar `if v > mx` scan of row returns when row's
// largest entry is a zero and mx started below it: the first zero, whose
// sign the scan keeps. Called only when row holds a zero.
func firstZero(row []float64) float64 {
	for _, v := range row {
		if v == 0 {
			return v
		}
	}
	return 0
}
