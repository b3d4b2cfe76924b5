package manager

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"mcorr/internal/alarm"
	"mcorr/internal/core"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// managerHeader is the small gob head of a saved Manager: configuration,
// measurement universe, the pair list in canonical order and the running
// accumulators (so localization state survives a restart). One model
// record group per pair follows it, in Pairs order. The alarm sink is a
// live object and is not serialized; LoadManager re-attaches one.
type managerHeader struct {
	Version int
	Config  persistedConfig
	IDs     []timeseries.MeasurementID
	Pairs   []Pair
	Acc     []accEntry
	SysAcc  [3]float64 // n, mean, m2
	Steps   int
}

// persistedConfig is Config minus the non-serializable sink. Per-pair
// running means (TrackPairMeans) are not persisted; they rebuild from the
// stream after a restore.
type persistedConfig struct {
	Model                core.Config
	Workers              int
	MeasurementThreshold float64
	SystemThreshold      float64
	ProbDelta            float64
	TrackPairMeans       bool
	FullRescore          bool
}

func persistConfig(c Config) persistedConfig {
	return persistedConfig{
		Model:                c.Model,
		Workers:              c.Workers,
		MeasurementThreshold: c.MeasurementThreshold,
		SystemThreshold:      c.SystemThreshold,
		ProbDelta:            c.ProbDelta,
		TrackPairMeans:       c.TrackPairMeans,
		FullRescore:          c.FullRescore,
	}
}

func (p persistedConfig) config(sink alarm.Sink) Config {
	return Config{
		Model:                p.Model,
		Workers:              p.Workers,
		MeasurementThreshold: p.MeasurementThreshold,
		SystemThreshold:      p.SystemThreshold,
		ProbDelta:            p.ProbDelta,
		TrackPairMeans:       p.TrackPairMeans,
		FullRescore:          p.FullRescore,
		Sink:                 sink,
	}
}

type accEntry struct {
	ID    timeseries.MeasurementID
	State [3]float64 // n, mean, m2
}

// managerFormat versions the saved-manager stream. Version 2 is the first
// record format; version 1 was one gob value and is no longer readable.
const managerFormat = 2

// maxWorkers bounds the worker count a saved manager may ask for.
const maxWorkers = 1 << 12

// Save streams the manager to w as records (see wal.RecordWriter; a
// *wal.RecordWriter continues its caller's stream): the header, then every
// trained pair model in canonical pair order, each encoded under its own
// lock straight into w — the fleet is never copied, and two saves of one
// state are byte-identical. Wrap a file or socket in a bufio.Writer.
func (m *Manager) Save(w io.Writer) error {
	rw := wal.NewRecordWriter(w)
	m.mu.Lock()
	hdr := managerHeader{
		Version: managerFormat,
		Config:  persistConfig(m.cfg),
		IDs:     m.ids,
		Pairs:   m.pairs,
	}
	models := m.modelAt
	m.mu.Unlock()
	hdr.Acc, hdr.SysAcc, hdr.Steps = m.state()

	var buf bytes.Buffer // the header only
	if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
		return fmt.Errorf("manager save: %w", err)
	}
	if err := rw.WriteBlob(buf.Bytes()); err != nil {
		return fmt.Errorf("manager save: %w", err)
	}
	for i, model := range models {
		if err := model.Save(rw); err != nil {
			return fmt.Errorf("manager save %s: %w", hdr.Pairs[i], err)
		}
	}
	obsCheckpointModels.Add(uint64(len(models)))
	m.refreshModelBytes()
	return nil
}

// LoadManager restores a manager saved by Save, reading exactly its
// records from r and decoding one model at a time, and attaches the given
// alarm sink (nil discards alarms). Decode failures wrap wal.ErrCorrupt.
func LoadManager(r io.Reader, sink alarm.Sink) (*Manager, error) {
	rr := wal.NewRecordReader(r)
	blob, err := rr.ReadBlob()
	if err != nil {
		return nil, fmt.Errorf("manager load: %w", err)
	}
	var hdr managerHeader
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("manager load: header: %v: %w", err, wal.ErrCorrupt)
	}
	if hdr.Version != managerFormat {
		return nil, fmt.Errorf("manager load: stream format %d, want %d: %w", hdr.Version, managerFormat, wal.ErrCorrupt)
	}
	if hdr.Config.Workers > maxWorkers {
		// A saved worker count is a bound, not a request; an absurd one is corruption.
		return nil, fmt.Errorf("manager load: %d workers: %w", hdr.Config.Workers, wal.ErrCorrupt)
	}
	// A pair reads its values from the row by its endpoints' indices, so
	// the header must agree with itself: a strictly increasing id list and
	// canonical pairs of its members.
	for i := 1; i < len(hdr.IDs); i++ {
		if !hdr.IDs[i-1].Less(hdr.IDs[i]) {
			return nil, fmt.Errorf("manager load: ids not strictly increasing at %s: %w", hdr.IDs[i], wal.ErrCorrupt)
		}
	}
	for _, p := range hdr.Pairs {
		if !validPair(hdr.IDs, p) {
			return nil, fmt.Errorf("manager load: pair %s is not a canonical pair of the fleet: %w", p, wal.ErrCorrupt)
		}
	}
	m := &Manager{
		cfg:    hdr.Config.config(sink).withDefaults(),
		ids:    hdr.IDs,
		models: make(map[Pair]*core.Model, len(hdr.Pairs)),
	}
	for _, p := range hdr.Pairs {
		model, err := core.LoadModel(rr)
		if err != nil {
			return nil, fmt.Errorf("manager load %s: %w", p, err)
		}
		m.models[p] = model
	}
	if len(m.models) != len(hdr.Pairs) {
		return nil, fmt.Errorf("manager load: %d pairs name %d models: %w", len(hdr.Pairs), len(m.models), wal.ErrCorrupt)
	}
	// Rebuild the derived step-path state (sorted pairs, scratch buffers,
	// a fresh aggregator), then install the persisted accumulator state
	// into the aggregator.
	m.initRuntime()
	m.restore(hdr.Acc, hdr.SysAcc, hdr.Steps)
	m.refreshModelBytes()
	return m, nil
}

// Config returns the effective configuration (with defaults applied) of
// the aggregator and of the fleet embedding it — what discovery needs to train a newly admitted pair with the exact
// settings of the existing fleet.
func (g *Aggregator) Config() Config {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}
