package core

import (
	"fmt"
	"math"
)

// Diagnostics summarizes a model's internal state for operators: how fine
// the grid is, how concentrated the learned transition structure has
// become, and how much of the probability mass stays put — the
// interpretability hooks behind the paper's "easy to interpret and can
// assist later human debugging" claim.
type Diagnostics struct {
	// GridX, GridY are the per-axis interval counts; Cells = GridX·GridY.
	GridX, GridY, Cells int
	// Observed is the number of transitions incorporated so far.
	Observed int
	// MeanRowEntropy is the average Shannon entropy (bits) of the
	// transition rows; log2(Cells) for a uniform matrix, 0 for point
	// masses.
	MeanRowEntropy float64
	// MaxRowEntropy is the entropy of a uniform row, for reference.
	MaxRowEntropy float64
	// SelfMass is the average P(c→c) across rows — the spatial-closeness
	// "stay put" tendency the paper measured (412 of 701 transitions).
	SelfMass float64
	// PeakedRows is the fraction of rows whose modal probability exceeds
	// one half (rows the model is very sure about).
	PeakedRows float64
}

// String renders the diagnostics compactly.
func (d Diagnostics) String() string {
	return fmt.Sprintf("grid %dx%d (%d cells), %d transitions observed, entropy %.2f/%.2f bits, self-mass %.3f, peaked rows %.0f%%",
		d.GridX, d.GridY, d.Cells, d.Observed, d.MeanRowEntropy, d.MaxRowEntropy, d.SelfMass, d.PeakedRows*100)
}

// Diagnostics computes the model's current internal summary. Cost is
// O(cells²) — times the number of grid growths for the rows no transition
// was observed out of, which are replayed for the read and not stored: the
// sweep leaves the model's memory as it found it.
func (m *Model) Diagnostics() Diagnostics {
	m.mu.Lock()
	defer m.mu.Unlock()
	nx, ny := m.grid.Dims()
	n := m.tm.NumCells()
	d := Diagnostics{
		GridX: nx, GridY: ny, Cells: n,
		Observed:      m.tm.Observed(),
		MaxRowEntropy: math.Log2(float64(n)),
	}
	var entropy, self float64
	peaked := 0
	for i := 0; i < n; i++ {
		row, err := m.tm.RowInto(m.row, i)
		if err != nil {
			continue
		}
		m.row = row
		var h, mx float64
		for _, p := range row {
			if p > 0 {
				h -= p * math.Log2(p)
			}
			if p > mx {
				mx = p
			}
		}
		entropy += h
		self += row[i]
		if mx > 0.5 {
			peaked++
		}
	}
	d.MeanRowEntropy = entropy / float64(n)
	d.SelfMass = self / float64(n)
	d.PeakedRows = float64(peaked) / float64(n)
	return d
}
