package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mcorr/internal/wal"
)

// modelHeader is the fixed-size little-endian head of a model record. All
// learned state is captured — config, matrix dimensions and counters, the
// Markov chain position and the frozen self-run — so a restored model
// continues exactly where the saved one stopped. A run live at checkpoint
// time is persisted verbatim and NOT flushed by Save, or the matrix
// trajectory would depend on checkpoint cadence and recovery would fork
// from an uninterrupted run. The grid edges, the matrix index and the
// stored rows follow (see Save); the row normalizers are derived state and
// stay out of the file.
type modelHeader struct {
	Version uint32
	NX, NY  uint32

	Units, MaxIntervals, MinIntervals, EqualSplit int64
	SimilarityTau, DensityFraction, UniformCV     float64
	Kernel, UpdateRule                            int64
	DecayW, Lambda, DirichletStrength             float64
	Adaptive, OmitProbs                           bool

	XAvgWidth, YAvgWidth float64
	Observed             int64
	Strength             float64
	Prev                 int64
	Armed                bool
	Stats                [5]int64 // Observations, Scored, Outliers, Growths, Updates

	RunValid                                     bool
	RunLen                                       int64
	RunScored, RunOutOfGrid, RunGrown, RunSteady bool
	RunProb, RunFitness                          float64
	RunCell                                      int64
}

// modelFormat versions the model record. Version 4 stores only the rows a
// pair has observed; version 3 stored all n² weights and versions 1 and 2
// were gob. None of the older ones is readable, and the checkpoint
// container's magic changed with each, so an older file is refused as
// another release's before a model record is ever reached.
const modelFormat = 4

// modelHeaderSize is the header record's exact length.
var modelHeaderSize = binary.Size(modelHeader{})

// maxAxis bounds a decoded axis so nx·ny stays far inside an int and a
// uint32. A matrix costs a few words per cell beyond its rows (the row
// table and, for a grid too wide to share the published kernel, a table of
// its own): maxUnobservedCells is the largest grid a record may claim
// without one stored row, so beyond it those tables are only built once a
// row's n floats have arrived.
const (
	maxAxis            = 1 << 15
	maxUnobservedCells = 1 << 16
)

// Save writes the model as one self-delimiting group of records: the
// header, the x and y grid edges, the matrix index as a blob (see
// appendIndex) and then each stored row, ascending, as one float record
// (more when a row exceeds wal.ChunkSize) of n entries, a stale row caught
// up. Rows no transition was observed out of are not written — LoadModel
// reproduces them from the index's growth history exactly as the live
// matrix does. Nothing is cloned: the model is encoded under its own lock,
// row by row, into w — wrap a file or socket in a bufio.Writer. When w is a *wal.RecordWriter the records
// continue its stream, which is how a manager saves its fleet.
func (m *Model) Save(w io.Writer) error {
	rw := wal.NewRecordWriter(w)
	m.mu.Lock()
	defer m.mu.Unlock()
	g, r := m.cfg.Grid, m.runRes
	hdr := modelHeader{
		Version: modelFormat, NX: uint32(m.tm.nx), NY: uint32(m.tm.ny),
		Units: int64(g.Units), MaxIntervals: int64(g.MaxIntervals), MinIntervals: int64(g.MinIntervals), EqualSplit: int64(g.EqualSplit),
		SimilarityTau: g.SimilarityTau, DensityFraction: g.DensityFraction, UniformCV: g.UniformCV,
		Kernel: int64(m.cfg.Kernel), UpdateRule: int64(m.cfg.UpdateRule),
		DecayW: m.cfg.DecayW, Lambda: m.cfg.Lambda, DirichletStrength: m.cfg.DirichletStrength,
		Adaptive: m.cfg.Adaptive, OmitProbs: m.cfg.OmitProbs,
		XAvgWidth: m.grid.X.AvgWidth, YAvgWidth: m.grid.Y.AvgWidth,
		Observed: int64(m.tm.observed), Strength: m.tm.strength,
		Prev: int64(m.prev), Armed: m.armed,
		Stats:    [5]int64{int64(m.stats.Observations), int64(m.stats.Scored), int64(m.stats.Outliers), int64(m.stats.Growths), int64(m.stats.Updates)},
		RunValid: m.runValid, RunLen: int64(m.runLen),
		RunScored: r.Scored, RunOutOfGrid: r.OutOfGrid, RunGrown: r.Grown, RunSteady: r.Steady,
		RunProb: r.Prob, RunFitness: r.Fitness, RunCell: int64(r.Cell),
	}
	err := binary.Write(rw, binary.LittleEndian, &hdr)
	if err == nil {
		err = rw.WriteFloats(m.grid.X.Edges, 0)
	}
	if err == nil {
		err = rw.WriteFloats(m.grid.Y.Edges, 0)
	}
	if err == nil {
		err = rw.WriteBlob(m.tm.appendIndex(nil))
	}
	for i, row := range m.tm.rows {
		if row != nil && err == nil {
			// A stale row is written caught up, through scratch: Save stores
			// nothing.
			err = rw.WriteFloats(m.tm.row(i), 0)
		}
	}
	if err != nil {
		return fmt.Errorf("model save: %w", err)
	}
	return nil
}

// appendIndex appends the matrix index to b as little-endian uint32s: the
// dims the matrix was built with, the number of growths, each growth's
// XLow, XHigh, YLow, YHigh oldest first, then the ascending indices of the
// stored rows.
func (tm *TransitionMatrix) appendIndex(b []byte) []byte {
	nx0, ny0 := tm.nx, tm.ny
	for _, gr := range tm.growths {
		nx0 -= gr.XLow + gr.XHigh
		ny0 -= gr.YLow + gr.YHigh
	}
	for _, v := range [...]int{nx0, ny0, len(tm.growths)} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, gr := range tm.growths {
		for _, v := range [...]int{gr.XLow, gr.XHigh, gr.YLow, gr.YHigh} {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	for i, row := range tm.rows {
		if row != nil {
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
		}
	}
	return b
}

// parseIndex decodes appendIndex's output for an nx×ny matrix, rejecting
// whatever a matrix could not have written: growths that add nothing, do
// not lead from the initial dims to nx×ny or outnumber the intervals they
// added, and row indices that repeat, descend or leave the matrix.
func parseIndex(b []byte, nx, ny int) (growths []Growth, rows []int, err error) {
	if len(b) < 12 || len(b)%4 != 0 {
		return nil, nil, fmt.Errorf("%d-byte matrix index: %w", len(b), wal.ErrCorrupt)
	}
	// int64 holds any sum of the index's uint32 words whatever int is.
	words := int64(len(b) / 4)
	word := func(k int64) int64 { return int64(binary.LittleEndian.Uint32(b[4*k:])) }
	cx, cy, g := word(0), word(1), word(2)
	if cx < 1 || cy < 1 || cx > int64(nx) || cy > int64(ny) || g > int64(nx)-cx+int64(ny)-cy || words < 3+4*g {
		return nil, nil, fmt.Errorf("matrix index: %d growths from %dx%d to %dx%d in %d words: %w", g, cx, cy, nx, ny, words, wal.ErrCorrupt)
	}
	growths = make([]Growth, g)
	for k := range growths {
		w := 3 + 4*int64(k)
		xlo, xhi, ylo, yhi := word(w), word(w+1), word(w+2), word(w+3)
		cx, cy = cx+xlo+xhi, cy+ylo+yhi
		if xlo+xhi+ylo+yhi == 0 || cx > int64(nx) || cy > int64(ny) {
			return nil, nil, fmt.Errorf("matrix index: growth %d reaches %dx%d of %dx%d: %w", k, cx, cy, nx, ny, wal.ErrCorrupt)
		}
		growths[k] = Growth{XLow: int(xlo), XHigh: int(xhi), YLow: int(ylo), YHigh: int(yhi)}
	}
	if cx != int64(nx) || cy != int64(ny) {
		return nil, nil, fmt.Errorf("matrix index: growths end at %dx%d, header says %dx%d: %w", cx, cy, nx, ny, wal.ErrCorrupt)
	}
	n, stored := int64(nx)*int64(ny), words-3-4*g
	if stored > n {
		return nil, nil, fmt.Errorf("matrix index: %d rows of a %d-cell matrix: %w", stored, n, wal.ErrCorrupt)
	}
	rows = make([]int, stored)
	for k := range rows {
		i := word(3 + 4*g + int64(k))
		if i >= n || (k > 0 && i <= int64(rows[k-1])) {
			return nil, nil, fmt.Errorf("matrix index: row %d at position %d of a %d-cell matrix: %w", i, k, n, wal.ErrCorrupt)
		}
		rows[k] = int(i)
	}
	return growths, rows, nil
}

// LoadModel restores a model saved by Save, reading exactly its records
// from r (a *wal.RecordReader continues its caller's stream). Every decode
// failure wraps wal.ErrCorrupt, a record that contradicts itself included:
// a CRC only proves the bytes are the ones written.
func LoadModel(r io.Reader) (*Model, error) {
	m, err := loadModel(wal.NewRecordReader(r))
	if err != nil {
		return nil, fmt.Errorf("model load: %w", err)
	}
	return m, nil
}

// validate checks the header's scalars against an n-cell matrix: the chain
// position and the frozen run must name cells that exist, and no counter
// runs backwards.
func (h *modelHeader) validate(n int64) error {
	bad := func(what string, v any) error { return fmt.Errorf("%s %v: %w", what, v, wal.ErrCorrupt) }
	switch {
	case h.Prev < -1 || h.Prev >= n, h.Armed && h.Prev < 0:
		return bad("chain position", h.Prev)
	case h.RunCell < -1 || h.RunCell >= n:
		return bad("frozen-run cell", h.RunCell)
	case h.RunLen < 0:
		return bad("frozen-run length", h.RunLen)
	case h.Observed < 0:
		return bad("observed count", h.Observed)
	case !(h.XAvgWidth > 0) || !(h.YAvgWidth > 0) || math.IsInf(h.XAvgWidth, 0) || math.IsInf(h.YAvgWidth, 0):
		return bad("average interval widths", [2]float64{h.XAvgWidth, h.YAvgWidth})
	case !(h.Lambda <= maxAxis):
		// Lambda bounds how many intervals one observation may add.
		return bad("lambda", h.Lambda)
	}
	for _, v := range h.Stats {
		if v < 0 {
			return bad("stats", h.Stats)
		}
	}
	return nil
}

// validEdges reports whether an axis's edges are finite and strictly
// ascending — what Axis.Locate's binary search assumes.
func validEdges(edges []float64) bool {
	for i, e := range edges {
		if math.IsNaN(e) || math.IsInf(e, 0) || (i > 0 && e <= edges[i-1]) {
			return false
		}
	}
	return true
}

// validRow reports whether a stored row's entries are ones an update can
// leave there: finite, and for Dirichlet counts nonnegative. No entry
// compares above a NaN, so a NaN cell would rank first and score every
// transition into it Q = 1; an infinity turns the row into NaNs at the next
// update.
func validRow(row []float64, rule UpdateRule) bool {
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) || (rule == UpdateDirichlet && v < 0) {
			return false
		}
	}
	return true
}

func loadModel(rr *wal.RecordReader) (*Model, error) {
	rec, err := rr.Next()
	if err != nil {
		return nil, err
	}
	var h modelHeader
	if len(rec) != modelHeaderSize {
		return nil, fmt.Errorf("%d-byte header: %w", len(rec), wal.ErrCorrupt)
	}
	if err := binary.Read(bytes.NewReader(rec), binary.LittleEndian, &h); err != nil {
		return nil, err
	}
	if h.Version != modelFormat {
		return nil, fmt.Errorf("record format %d, want %d: %w", h.Version, modelFormat, wal.ErrCorrupt)
	}
	if h.NX < 1 || h.NY < 1 || h.NX > maxAxis || h.NY > maxAxis {
		return nil, fmt.Errorf("degenerate grid %dx%d: %w", h.NX, h.NY, wal.ErrCorrupt)
	}
	nx, ny := int(h.NX), int(h.NY)
	n := nx * ny
	if err := h.validate(int64(n)); err != nil {
		return nil, err
	}
	xEdges, err := rr.ReadFloats(nx + 1)
	if err != nil {
		return nil, err
	}
	yEdges, err := rr.ReadFloats(ny + 1)
	if err != nil {
		return nil, err
	}
	if !validEdges(xEdges) || !validEdges(yEdges) {
		return nil, fmt.Errorf("grid edges not finite and ascending: %w", wal.ErrCorrupt)
	}
	index, err := rr.ReadBlob()
	if err != nil {
		return nil, err
	}
	growths, at, err := parseIndex(index, nx, ny)
	if err != nil {
		return nil, err
	}
	if len(at) == 0 && n > maxUnobservedCells {
		return nil, fmt.Errorf("%d cells and no stored row: %w", n, wal.ErrCorrupt)
	}
	cfg := Config{
		Grid: GridConfig{
			Units: int(h.Units), SimilarityTau: h.SimilarityTau, DensityFraction: h.DensityFraction,
			MaxIntervals: int(h.MaxIntervals), MinIntervals: int(h.MinIntervals), EqualSplit: int(h.EqualSplit), UniformCV: h.UniformCV,
		},
		Kernel: KernelKind(h.Kernel), DecayW: h.DecayW, Lambda: h.Lambda, Adaptive: h.Adaptive,
		UpdateRule: UpdateRule(h.UpdateRule), DirichletStrength: h.DirichletStrength, OmitProbs: h.OmitProbs,
	}.withDefaults()
	if cfg.UpdateRule != UpdateKernelBayes && cfg.UpdateRule != UpdateDirichlet {
		return nil, fmt.Errorf("update rule %d: %w", int(cfg.UpdateRule), wal.ErrCorrupt)
	}
	stored := make([][]float64, len(at))
	for k := range stored {
		if stored[k], err = rr.ReadFloats(n); err != nil {
			return nil, err
		}
		if !validRow(stored[k], cfg.UpdateRule) {
			return nil, fmt.Errorf("row %d holds an entry no %v matrix can: %w", at[k], cfg.UpdateRule, wal.ErrCorrupt)
		}
	}
	// The row table is n entries, and so is the kernel's when the grid is
	// beyond what NewKernel shares (nothing is published for those): built
	// only now that every stored row — n floats each — has arrived, so a
	// hostile header cannot size them.
	rows := make([][]float64, n)
	for k, i := range at {
		rows[i] = stored[k]
	}
	kernel, err := NewKernel(cfg.Kernel, cfg.DecayW, nx, ny)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, wal.ErrCorrupt)
	}
	return &Model{
		cfg:  cfg,
		grid: &Grid{X: Axis{Edges: xEdges, AvgWidth: h.XAvgWidth}, Y: Axis{Edges: yEdges, AvgWidth: h.YAvgWidth}},
		tm: &TransitionMatrix{
			nx: nx, ny: ny, n: n, kernel: kernel, rule: cfg.UpdateRule,
			rows: rows, growths: growths, strength: h.Strength, observed: int(h.Observed),
		},
		prev:     int(h.Prev),
		armed:    h.Armed,
		stats:    Stats{Observations: int(h.Stats[0]), Scored: int(h.Stats[1]), Outliers: int(h.Stats[2]), Growths: int(h.Stats[3]), Updates: int(h.Stats[4])},
		runValid: h.RunValid,
		runLen:   int(h.RunLen),
		runRes: StepResult{
			Scored: h.RunScored, Prob: h.RunProb, Fitness: h.RunFitness, OutOfGrid: h.RunOutOfGrid,
			Cell: int(h.RunCell), Grown: h.RunGrown, Steady: h.RunSteady,
		},
	}, nil
}
