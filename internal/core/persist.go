package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"mcorr/internal/wal"
)

// modelHeader is the fixed-size little-endian head of a model record. All
// learned state is captured — config, matrix dimensions and counters, the
// Markov chain position and the frozen self-run — so a restored model
// continues exactly where the saved one stopped. A run live at checkpoint
// time is persisted verbatim and NOT flushed by Save, or the matrix
// trajectory would depend on checkpoint cadence and recovery would fork
// from an uninterrupted run. The grid edges and the weights follow as raw
// float records; the row-normalization caches (probs/norm/clean) are
// derived state and stay out of the file.
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

// modelFormat versions the model record. Version 3 is the first record
// format; versions 1 and 2 were gob and are no longer readable.
const modelFormat = 3

// modelHeaderSize is the header record's exact length.
var modelHeaderSize = binary.Size(modelHeader{})

// maxAxis bounds a decoded axis so nx·ny and its square stay far inside an
// int; the weights themselves are only allocated as their records arrive.
const maxAxis = 1 << 15

// Save writes the model as one self-delimiting group of records: the
// header, the x and y grid edges, and the weights in row-aligned chunks of
// at most wal.ChunkSize. Nothing is cloned: the model is encoded under its
// own lock, chunk by chunk, into w — wrap a file or socket in a
// bufio.Writer. When w is a *wal.RecordWriter the records continue its
// stream, which is how a manager saves its fleet.
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
		err = rw.WriteFloats(m.tm.weights, m.tm.n)
	}
	if err != nil {
		return fmt.Errorf("model save: %w", err)
	}
	return nil
}

// LoadModel restores a model saved by Save, reading exactly its records
// from r (a *wal.RecordReader continues its caller's stream). Every decode
// failure wraps wal.ErrCorrupt.
func LoadModel(r io.Reader) (*Model, error) {
	m, err := loadModel(wal.NewRecordReader(r))
	if err != nil {
		return nil, fmt.Errorf("model load: %w", err)
	}
	return m, nil
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
	xEdges, err := rr.ReadFloats(nx + 1)
	if err != nil {
		return nil, err
	}
	yEdges, err := rr.ReadFloats(ny + 1)
	if err != nil {
		return nil, err
	}
	weights, err := rr.ReadFloats(n * n)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Grid: GridConfig{
			Units: int(h.Units), SimilarityTau: h.SimilarityTau, DensityFraction: h.DensityFraction,
			MaxIntervals: int(h.MaxIntervals), MinIntervals: int(h.MinIntervals), EqualSplit: int(h.EqualSplit), UniformCV: h.UniformCV,
		},
		Kernel: KernelKind(h.Kernel), DecayW: h.DecayW, Lambda: h.Lambda, Adaptive: h.Adaptive,
		UpdateRule: UpdateRule(h.UpdateRule), DirichletStrength: h.DirichletStrength, OmitProbs: h.OmitProbs,
	}.withDefaults()
	// The kernel's tables are nx·ny entries: built only now that n² weights
	// have actually arrived, so a hostile header cannot size them.
	kernel, err := NewKernel(cfg.Kernel, cfg.DecayW, nx, ny)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, wal.ErrCorrupt)
	}
	return &Model{
		cfg:  cfg,
		grid: &Grid{X: Axis{Edges: xEdges, AvgWidth: h.XAvgWidth}, Y: Axis{Edges: yEdges, AvgWidth: h.YAvgWidth}},
		tm: &TransitionMatrix{
			nx: nx, ny: ny, n: n, kernel: kernel, rule: cfg.UpdateRule,
			weights: weights, strength: h.Strength, observed: int(h.Observed),
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
