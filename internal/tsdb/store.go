package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// ErrUnknownMeasurement is returned when querying an ID never appended.
var ErrUnknownMeasurement = errors.New("tsdb: unknown measurement")

// ErrStale is returned when a sample predates data already stored.
var ErrStale = errors.New("tsdb: sample older than stored data")

// PartialAppendError reports a batch append that stopped partway: the
// first Stored samples were applied (and, on a durable store, logged);
// the rest were not. A sender can resume from offset Stored instead of
// re-sending the whole batch. It unwraps to the underlying cause, so
// errors.Is(err, ErrStale) still works.
type PartialAppendError struct {
	// Stored is how many leading samples of the batch were applied.
	Stored int
	// Err is the error that stopped the batch.
	Err error
}

// Error describes the partial append.
func (e *PartialAppendError) Error() string {
	return fmt.Sprintf("tsdb: batch stopped after %d samples: %v", e.Stored, e.Err)
}

// Unwrap returns the underlying cause.
func (e *PartialAppendError) Unwrap() error { return e.Err }

// Sample is one observation of one measurement.
//
// Ref is a hint, not part of the observation: the store's handle for ID,
// 0 for "look it up". A Store files a sample whose Ref names a series with
// this exact ID by slice index and any other through its ID map, so a
// stale or foreign hint costs a lookup, never a misfiled sample.
// AppendBatch writes the handle it resolved back into each applied
// sample, and a sender that keeps it (the collector's per-connection ID
// table) skips the lookup on its next batch.
type Sample struct {
	ID    timeseries.MeasurementID
	Time  time.Time
	Value float64
	Ref   uint32
}

// Store is an in-memory time-series database. All methods are safe for
// concurrent use.
type Store struct {
	mu        sync.RWMutex
	step      time.Duration
	retention int // max samples kept per measurement; 0 = unbounded
	series    map[timeseries.MeasurementID]*entry
	refs      []*entry  // refs[h-1] is the series with handle h
	wal       *wal.Log  // nil = in-memory only; see AttachWAL
	w         walWriter // the durable half's record state, under mu
}

type entry struct {
	id     timeseries.MeasurementID
	ref    uint32 // this series' handle: refs[ref-1] == the entry
	walH   uint32 // its handle in the active WAL segment, 0 until defined there
	start  time.Time
	values []float64
}

// NewStore returns a store that aligns samples onto a step-sized grid and
// keeps at most retention samples per measurement (0 keeps everything).
func NewStore(step time.Duration, retention int) (*Store, error) {
	if step <= 0 {
		return nil, fmt.Errorf("tsdb step %v: must be positive", step)
	}
	if retention < 0 {
		return nil, fmt.Errorf("tsdb retention %d: must be non-negative", retention)
	}
	return &Store{step: step, retention: retention, series: make(map[timeseries.MeasurementID]*entry)}, nil
}

// Step returns the store's sampling grid.
func (s *Store) Step() time.Duration { return s.step }

// Append stores one sample. Sample times are truncated onto the grid; gaps
// between the previous sample and this one are filled with NaN; a sample
// older than stored data is rejected with ErrStale; a sample for an
// already-filled slot overwrites it only if the slot is the latest. On a
// durable store the sample is in the WAL before Append returns.
func (s *Store) Append(sm Sample) error {
	err := s.AppendBatch((&[1]Sample{sm})[:])
	if err != nil {
		var pe *PartialAppendError
		if errors.As(err, &pe) {
			return pe.Err
		}
	}
	return err
}

// AppendBatch stores samples in order, stopping at the first error. A
// failure partway through returns a *PartialAppendError carrying how many
// leading samples were applied, so the sender can resume from that offset.
// On a durable store exactly the applied prefix is logged to the WAL
// before AppendBatch returns, and a sample the WAL record could not hold
// stops the batch before it is applied. The collector server acks exactly
// this Stored count back to agents (whether batches reach the store inline
// or through the flow-control admission queue), which is what lets a
// ReliableAgent resume mid-batch without duplicating WAL-logged samples.
// Each applied sample's Ref is set to its series' handle.
func (s *Store) AppendBatch(batch []Sample) error {
	start := time.Now()
	s.mu.Lock()
	var cause error
	stored := 0
	durable := s.wal != nil
	if durable {
		s.w.begin(s.wal.NextSegment())
	}
	var t time.Time // batch[i].Time on the grid, truncated once per distinct time
	c := slots{step: s.step}
	for i := range batch {
		sm := &batch[i]
		if i == 0 || sm.Time != batch[i-1].Time {
			t = sm.Time.Truncate(s.step)
		}
		e := s.lookupLocked(sm)
		if durable {
			if err := s.w.reserve(e, sm); err != nil {
				cause = fmt.Errorf("sample %d (%s): %w", i, sm.ID, err)
				break
			}
		}
		if e == nil {
			e = s.addLocked(sm.ID)
		}
		if sm.Ref != e.ref {
			sm.Ref = e.ref
		}
		if err := s.applyLocked(e, t, c.of(t, e.start), sm.Value); err != nil {
			cause = fmt.Errorf("sample %d (%s at %v): %w", i, sm.ID, sm.Time, err)
			break
		}
		if durable {
			s.w.add(e)
		}
		stored++
	}
	if durable && stored > 0 {
		if werr := s.w.log(s.wal, batch[:stored]); werr != nil && cause == nil {
			// Applied in memory but not durably logged: surface it. The
			// samples are in the store, so Stored still counts them and a
			// resume will not re-send (a re-send would be rejected stale).
			cause = werr
		}
	}
	s.mu.Unlock()
	obsAppendSeconds.Observe(time.Since(start).Seconds())
	obsAppended.Add(uint64(stored))
	if cause != nil {
		obsAppendErrors.Inc()
		return &PartialAppendError{Stored: stored, Err: cause}
	}
	return nil
}

// lookupLocked returns sm's series, nil when the store has none: by
// sm.Ref when that handle names a series with sm's ID, through the ID map
// otherwise. Callers hold s.mu.
func (s *Store) lookupLocked(sm *Sample) *entry {
	if h := sm.Ref; h != 0 && int(h) <= len(s.refs) {
		if e := s.refs[h-1]; e.id == sm.ID {
			return e
		}
	}
	return s.series[sm.ID]
}

// addLocked creates the series id and gives it the next handle. Callers
// hold s.mu and know the store has no series id.
func (s *Store) addLocked(id timeseries.MeasurementID) *entry {
	e := &entry{id: id, ref: uint32(len(s.refs) + 1)}
	s.series[id] = e
	s.refs = append(s.refs, e)
	obsSeries.Inc()
	return e
}

// applyLocked files value at t, a time on the grid and slot idx of e.
// Callers hold s.mu.
func (s *Store) applyLocked(e *entry, t time.Time, idx int, value float64) error {
	switch {
	case len(e.values) == 0:
		e.start = t
		e.values = append(e.values, value)
	case idx < len(e.values)-1:
		return ErrStale
	case idx == len(e.values)-1:
		e.values[idx] = value // overwrite the most recent slot
	default:
		for len(e.values) < idx {
			e.values = append(e.values, math.NaN())
		}
		e.values = append(e.values, value)
	}
	if s.retention > 0 && len(e.values) > s.retention {
		// Re-slice instead of moving the series down: the dropped prefix is
		// left behind the slice and freed when append next reallocates,
		// which copies retention values once per capacity, not per sample.
		drop := len(e.values) - s.retention
		e.start = e.start.Add(time.Duration(drop) * s.step)
		e.values = e.values[drop:]
	}
	return nil
}

// slots finds grid times' slots in series. It does the time arithmetic
// once per distinct (time, series start) in a row of questions, so a batch
// for a fleet whose series started together costs one division per time,
// not one per sample.
type slots struct {
	step     time.Duration
	t, start time.Time
	idx      int
}

// of returns t's slot in a series that starts at start.
func (c *slots) of(t, start time.Time) int {
	if t != c.t || start != c.start {
		c.t, c.start, c.idx = t, start, int(t.Sub(start)/c.step)
	}
	return c.idx
}

// Query returns a copy of the stored samples for id within [from, to).
func (s *Store) Query(id timeseries.MeasurementID, from, to time.Time) (*timeseries.Series, error) {
	start := time.Now()
	defer func() { obsQuerySeconds.Observe(time.Since(start).Seconds()) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.series[id]
	if !ok {
		return nil, fmt.Errorf("%s: %w", id, ErrUnknownMeasurement)
	}
	full := &timeseries.Series{ID: id, Start: e.start, Step: s.step, Values: e.values}
	return full.Slice(from, to).Clone(), nil
}

// QueryAll returns a dataset of copies of every measurement restricted to
// [from, to).
func (s *Store) QueryAll(from, to time.Time) *timeseries.Dataset {
	start := time.Now()
	defer func() { obsQuerySeconds.Observe(time.Since(start).Seconds()) }()
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds := timeseries.NewDataset()
	for id, e := range s.series {
		full := &timeseries.Series{ID: id, Start: e.start, Step: s.step, Values: e.values}
		ds.Add(full.Slice(from, to).Clone())
	}
	return ds
}

// IDs returns the stored measurement IDs in stable order.
func (s *Store) IDs() []timeseries.MeasurementID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sortedIDsLocked()
}

// sortedIDsLocked returns the stored IDs in MeasurementID.Less order.
// Callers hold s.mu.
func (s *Store) sortedIDsLocked() []timeseries.MeasurementID {
	ids := make([]timeseries.MeasurementID, 0, len(s.series))
	for id := range s.series {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// Len returns the number of stored samples for id (0 when unknown).
func (s *Store) Len(id timeseries.MeasurementID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.series[id]; ok {
		return len(e.values)
	}
	return 0
}

// LastTime returns the timestamp of the most recent sample for id.
func (s *Store) LastTime(id timeseries.MeasurementID) (time.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.series[id]
	if !ok || len(e.values) == 0 {
		return time.Time{}, false
	}
	return e.start.Add(time.Duration(len(e.values)-1) * s.step), true
}

// LoadDataset bulk-inserts a dataset (e.g. generated history) whose series
// must share the store's step.
func (s *Store) LoadDataset(ds *timeseries.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ds.IDs() {
		src := ds.Get(id)
		if src.Step != s.step {
			return fmt.Errorf("load %s with step %v into %v store: %w", id, src.Step, s.step, timeseries.ErrStepMismatch)
		}
		vals := make([]float64, len(src.Values))
		copy(vals, src.Values)
		// An existing series is overwritten in place: a RowReader holds the
		// entry, so entries are never replaced.
		e, exists := s.series[id]
		if !exists {
			e = s.addLocked(id)
		}
		obsAppended.Add(uint64(len(vals)))
		e.start, e.values = src.Start, vals
		if s.retention > 0 && len(vals) > s.retention {
			drop := len(vals) - s.retention
			e.start = e.start.Add(time.Duration(drop) * s.step)
			e.values = vals[drop:]
		}
	}
	return nil
}

// storeFormat versions the snapshot stream.
const storeFormat = 2

// Snapshot streams the store to w as records (see wal.RecordWriter; a
// *wal.RecordWriter continues its caller's stream): a header with the
// format, step, retention and series count, then per series in sorted-ID
// order one record naming it — machine, metric, start — and its values as
// raw float records. Sorted order makes two snapshots of one state
// byte-identical. The store's read lock is held for the duration, so w
// should be buffered.
func (s *Store) Snapshot(w io.Writer) error {
	rw := wal.NewRecordWriter(w)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.sortedIDsLocked()
	hdr := binary.LittleEndian.AppendUint64(nil, storeFormat)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.step))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.retention))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(ids)))
	if _, err := rw.Write(hdr); err != nil {
		return fmt.Errorf("tsdb snapshot: %w", err)
	}
	var rec []byte // series record scratch
	for _, id := range ids {
		e := s.series[id]
		start, err := e.start.MarshalBinary()
		if err != nil {
			return fmt.Errorf("tsdb snapshot %s: %w", id, err)
		}
		rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(len(e.values)))
		for _, f := range [][]byte{[]byte(id.Machine), []byte(id.Metric), start} {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(f)))
			rec = append(rec, f...)
		}
		if _, err := rw.Write(rec); err != nil {
			return fmt.Errorf("tsdb snapshot %s: %w", id, err)
		}
		if err := rw.WriteFloats(e.values, 0); err != nil {
			return fmt.Errorf("tsdb snapshot %s: %w", id, err)
		}
	}
	return nil
}

// Restore reads exactly one snapshot written by Snapshot from r and returns
// the store it describes. Decode failures wrap wal.ErrCorrupt.
func Restore(r io.Reader) (*Store, error) {
	s, err := restore(wal.NewRecordReader(r))
	if err != nil {
		return nil, fmt.Errorf("tsdb restore: %w", err)
	}
	return s, nil
}

func restore(rr *wal.RecordReader) (*Store, error) {
	hdr, err := rr.Next()
	if err != nil {
		return nil, err
	}
	if len(hdr) != 32 || binary.LittleEndian.Uint64(hdr) != storeFormat {
		return nil, fmt.Errorf("snapshot header: %w", wal.ErrCorrupt)
	}
	count := binary.LittleEndian.Uint64(hdr[24:])
	s, err := NewStore(time.Duration(binary.LittleEndian.Uint64(hdr[8:])), int(int64(binary.LittleEndian.Uint64(hdr[16:]))))
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, wal.ErrCorrupt)
	}
	for i := uint64(0); i < count; i++ {
		rec, err := rr.Next()
		if err != nil {
			return nil, err
		}
		if len(rec) < 8 {
			return nil, fmt.Errorf("series record of %d bytes: %w", len(rec), wal.ErrCorrupt)
		}
		n := binary.LittleEndian.Uint64(rec)
		var fields [3][]byte
		rec = rec[8:]
		for f := range fields {
			if len(rec) < 4 || uint64(len(rec)-4) < uint64(binary.LittleEndian.Uint32(rec)) {
				return nil, fmt.Errorf("series record field %d: %w", f, wal.ErrCorrupt)
			}
			l := int(binary.LittleEndian.Uint32(rec))
			fields[f], rec = rec[4:4+l], rec[4+l:]
		}
		id := timeseries.MeasurementID{Machine: string(fields[0]), Metric: string(fields[1])}
		var start time.Time
		if err := start.UnmarshalBinary(fields[2]); err != nil || n > math.MaxInt32 {
			return nil, fmt.Errorf("series %s: %w", id, wal.ErrCorrupt)
		}
		values, err := rr.ReadFloats(int(n))
		if err != nil {
			return nil, fmt.Errorf("series %s: %w", id, err)
		}
		if _, dup := s.series[id]; dup {
			return nil, fmt.Errorf("series %s twice: %w", id, wal.ErrCorrupt)
		}
		e := s.addLocked(id)
		e.start, e.values = start, values
	}
	return s, nil
}
