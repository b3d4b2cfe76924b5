package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// ErrBadWALRecord is returned when a WAL payload does not decode as a
// sample record.
var ErrBadWALRecord = errors.New("tsdb: malformed WAL sample record")

// A sample record names series by handle. Layout (integers big-endian
// unless uvarint):
//
//	uint32  n                samples in the record
//	uvarint d                definitions that follow
//	uvarint h                the first one's handle (present iff d > 0)
//	d ×     string machine, string metric   (uvarint length + bytes each)
//	runs of samples sharing a time, n samples in all:
//	        int64 unix-nano, uvarint k ≥ 1, k × (uvarint handle, float64 bits)
//
// The definitions give handles h, h+1, …, h+d−1 the series they name; h is
// at most one past the highest handle the reader already holds, so its
// table grows only by what the input spells out. A handle is valid from
// its definition on, and a later definition of the same handle replaces
// it. A durable store numbers handles per segment, 1, 2, … in order of
// first use, and defines each in the record that first uses it there, so
// every segment reads on its own: TruncateBefore can drop the segments
// before it. A process that appends into the segment another one left
// numbers from 1 again and redefines what it uses.
const (
	walHeadBytes   = 4 + 2*binary.MaxVarintLen32 // n, d, h
	walSampleBytes = binary.MaxVarintLen32 + 8   // handle, value
	walRunBytes    = 8 + binary.MaxVarintLen32   // time, k
	walDefBytes    = 2 * binary.MaxVarintLen32   // two string lengths
	walMinSample   = 1 + 8                       // the smallest sample encoding
	walMinRun      = 8 + 1 + walMinSample        // the smallest run encoding
)

// EncodeWALBatch serializes a sample batch into one self-contained WAL
// record payload, which defines every handle it uses. Samples that carry
// a store's handles in Ref, as AppendBatch leaves them, share one
// definition per series, found by slice index; a sample without one, or
// whose Ref names another ID earlier in the batch, is defined on its own.
// It fails, wrapping wal.ErrTooBig, when the record would exceed
// wal.MaxRecordSize.
func EncodeWALBatch(batch []Sample) ([]byte, error) {
	var top uint32
	for _, sm := range batch {
		top = max(top, sm.Ref)
	}
	// byRef[r] is the record's handle for the series with store handle r;
	// handles past 4 per sample are defined on their own.
	byRef := make([]uint32, min(top, uint32(4*len(batch)))+1)
	handles := make([]uint32, len(batch))
	defs := make([]int, 0, len(batch)) // defs[h-1] is the sample whose ID handle h names
	size := walHeadBytes + len(batch)*(walSampleBytes+walRunBytes)
	for i, sm := range batch {
		var h uint32
		if sm.Ref < uint32(len(byRef)) {
			h = byRef[sm.Ref]
		}
		if h == 0 || batch[defs[h-1]].ID != sm.ID {
			defs = append(defs, i)
			h = uint32(len(defs))
			if sm.Ref != 0 && sm.Ref < uint32(len(byRef)) && byRef[sm.Ref] == 0 {
				byRef[sm.Ref] = h
			}
			size += walDefBytes + len(sm.ID.Machine) + len(sm.ID.Metric)
		}
		handles[i] = h
	}
	buf := appendWALHead(make([]byte, 0, size), len(batch), 1, len(defs))
	for _, i := range defs {
		buf = appendWALName(buf, batch[i].ID)
	}
	buf = appendWALRuns(buf, batch, handles)
	if len(buf) > wal.MaxRecordSize {
		return nil, fmt.Errorf("tsdb: WAL record of %d bytes: %w", len(buf), wal.ErrTooBig)
	}
	return buf, nil
}

// appendWALHead appends a record's sample count and the count and first
// handle of the definitions that follow.
func appendWALHead(buf []byte, samples int, first uint32, defs int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(samples))
	buf = binary.AppendUvarint(buf, uint64(defs))
	if defs > 0 {
		buf = binary.AppendUvarint(buf, uint64(first))
	}
	return buf
}

// appendWALName appends the definition of one series.
func appendWALName(buf []byte, id timeseries.MeasurementID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(id.Machine)))
	buf = append(buf, id.Machine...)
	buf = binary.AppendUvarint(buf, uint64(len(id.Metric)))
	return append(buf, id.Metric...)
}

// appendWALRuns appends batch as runs of consecutive samples with equal
// times, sample i under handles[i]. Runs keep the batch's order, so replay
// applies the samples exactly as they were applied.
func appendWALRuns(buf []byte, batch []Sample, handles []uint32) []byte {
	for i := 0; i < len(batch); {
		ns := batch[i].Time.UnixNano()
		j := i + 1
		for j < len(batch) && batch[j].Time.UnixNano() == ns {
			j++
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(ns))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		for ; i < j; i++ {
			buf = binary.AppendUvarint(buf, uint64(handles[i]))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(batch[i].Value))
		}
	}
	return buf
}

// DecodeWALBatch parses one self-contained record, such as EncodeWALBatch
// writes. It never panics on damaged input, bounds its allocations by the
// payload's size, and every error wraps ErrBadWALRecord.
func DecodeWALBatch(payload []byte) ([]Sample, error) {
	var r walReader
	return r.read(payload, true)
}

// walReader decodes a log's sample records in order, keeping the latest
// definition it has read of every handle.
type walReader struct {
	names   []walName // names[h-1] is what handle h names
	batch   []Sample  // the last record's samples, reused
	handles []uint32  // handles[i] is batch[i]'s
}

// walName is one handle's definition.
type walName struct {
	id  timeseries.MeasurementID
	ref uint32 // the store's handle for id, once a replay has resolved it
}

// read decodes one record: its definitions into r.names and, when samples
// is set, its samples into r.batch (Ref from the definition's hint) and
// their handles into r.handles.
func (r *walReader) read(payload []byte, samples bool) ([]Sample, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrBadWALRecord)
	}
	if len(payload) < 4 {
		return nil, bad("record of %d bytes", len(payload))
	}
	n := uint64(binary.BigEndian.Uint32(payload))
	p := payload[4:]
	defs, p, ok := cutUvarint(p)
	if !ok || defs > uint64(len(p))/2 {
		return nil, bad("definition count")
	}
	if defs > 0 {
		var first uint64
		if first, p, ok = cutUvarint(p); !ok || first == 0 || first > uint64(len(r.names))+1 {
			return nil, bad("first defined handle %d with %d known", first, len(r.names))
		}
		for h := first; h < first+defs; h++ {
			var machine, metric []byte
			if machine, p, ok = cutName(p); ok {
				metric, p, ok = cutName(p)
			}
			if !ok {
				return nil, bad("definition of handle %d", h)
			}
			def := walName{id: timeseries.MeasurementID{Machine: string(machine), Metric: string(metric)}}
			if h <= uint64(len(r.names)) {
				r.names[h-1] = def
			} else {
				r.names = append(r.names, def)
			}
		}
	}
	if !samples {
		return nil, nil
	}
	if n > uint64(len(p))/walMinSample {
		return nil, bad("%d samples in %d bytes", n, len(p))
	}
	r.batch, r.handles = r.batch[:0], r.handles[:0]
	for uint64(len(r.batch)) < n {
		if len(p) < walMinRun {
			return nil, bad("run after %d samples", len(r.batch))
		}
		t := time.Unix(0, int64(binary.BigEndian.Uint64(p))).UTC()
		k, rest, ok := cutUvarint(p[8:])
		if !ok || k == 0 || k > n-uint64(len(r.batch)) {
			return nil, bad("run of %d samples after %d of %d", k, len(r.batch), n)
		}
		p = rest
		for ; k > 0; k-- {
			h, rest, ok := cutUvarint(p)
			if !ok || h == 0 || h > uint64(len(r.names)) || len(rest) < 8 {
				return nil, bad("sample %d: handle %d with %d defined", len(r.batch), h, len(r.names))
			}
			def := r.names[h-1]
			r.batch = append(r.batch, Sample{ID: def.id, Time: t, Value: math.Float64frombits(binary.BigEndian.Uint64(rest)), Ref: def.ref})
			r.handles = append(r.handles, uint32(h))
			p = rest[8:]
		}
	}
	if len(p) != 0 {
		return nil, bad("%d trailing bytes", len(p))
	}
	return r.batch, nil
}

// cutUvarint splits one uvarint off p.
func cutUvarint(p []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, false
	}
	return v, p[n:], true
}

// cutName splits one uvarint-length-prefixed string off p, without
// copying it.
func cutName(p []byte) ([]byte, []byte, bool) {
	n, rest, ok := cutUvarint(p)
	if !ok || n > uint64(len(rest)) {
		return nil, nil, false
	}
	return rest[:n], rest[n:], true
}

// walWriter is a durable store's side of the record format: the handles
// the active segment has defined and the record being built. The store
// holds its lock around every use.
type walWriter struct {
	seg     uint64   // first sequence number of the segment defs belong to
	defs    []*entry // defs[h-1] is the series handle h names in seg
	mark    int      // len(defs) when the batch began: defs[mark:] are its own
	handles []uint32 // handles[i] is the batch's sample i's
	size    int      // an upper bound on the record's size so far
	lastNs  int64    // the time of the batch's last reserved sample
	buf     []byte   // the record, reused: Log.Append copies it
}

// begin starts a batch whose record will open the log's next append, into
// the segment starting at seg. Handles defined in another segment are
// forgotten.
func (w *walWriter) begin(seg uint64) {
	if seg != w.seg {
		w.forget()
		w.seg = seg
	}
	w.mark = len(w.defs)
	w.handles = w.handles[:0]
	w.size = walHeadBytes
}

// forget undefines every handle.
func (w *walWriter) forget() {
	for _, e := range w.defs {
		e.walH = 0
	}
	w.defs = w.defs[:0]
	w.seg = 0
}

// reserve counts what sample sm of series e (nil for a series the store
// does not have yet) adds to the record, and refuses it, before the store
// applies it, when the record would no longer fit in one WAL record.
func (w *walWriter) reserve(e *entry, sm *Sample) error {
	n := walSampleBytes
	if ns := sm.Time.UnixNano(); len(w.handles) == 0 || ns != w.lastNs {
		n += walRunBytes
		w.lastNs = ns
	}
	if e == nil || e.walH == 0 {
		n += walDefBytes + len(sm.ID.Machine) + len(sm.ID.Metric)
	}
	if w.size+n > wal.MaxRecordSize {
		return fmt.Errorf("WAL record would exceed %d bytes: %w", wal.MaxRecordSize, wal.ErrTooBig)
	}
	w.size += n
	return nil
}

// add puts the applied sample of series e in the record, defining e's
// handle on its first use in the segment.
func (w *walWriter) add(e *entry) {
	if e.walH == 0 {
		w.defs = append(w.defs, e)
		e.walH = uint32(len(w.defs))
	}
	w.handles = append(w.handles, e.walH)
}

// log writes the record of applied, the samples added since begin, to l.
// A record that does not reach the log takes its definitions with it.
func (w *walWriter) log(l *wal.Log, applied []Sample) error {
	defs := w.defs[w.mark:]
	buf := appendWALHead(w.buf[:0], len(applied), uint32(w.mark+1), len(defs))
	for _, e := range defs {
		buf = appendWALName(buf, e.id)
	}
	w.buf = appendWALRuns(buf, applied, w.handles)
	if _, err := l.Append(w.buf); err != nil {
		for _, e := range defs {
			e.walH = 0
		}
		w.defs = w.defs[:w.mark]
		return fmt.Errorf("tsdb wal append: %w", err)
	}
	return nil
}

// AttachWAL makes the store durable: from now on every successfully
// applied sample is appended to l before Append/AppendBatch return (and
// therefore before any collector ack is sent). Appends and log writes are
// serialized under the store lock, so replay order matches apply order.
// The store must be l's only writer: it tracks which handles each segment
// has defined (see Log.NextSegment). Bulk history loads (LoadDataset) and
// snapshot restores are deliberately not logged — they re-create state
// that is already durable elsewhere.
func (s *Store) AttachWAL(l *wal.Log) {
	s.mu.Lock()
	s.wal = l
	s.w.forget()
	s.mu.Unlock()
}

// ReplayWAL replays the sample records of the log directory dir with
// sequence numbers > after into the store — the recovery step that brings
// a checkpointed store back to the moment of the crash. The segment
// holding record after+1 is read from its start, because records the
// checkpoint covers define handles that later ones use. Replay is
// idempotent: samples the store already holds (duplicates, or anything
// older than the retained window) are skipped, not errors. It returns the
// samples applied and skipped.
func (s *Store) ReplayWAL(dir string, after uint64) (applied, skipped int, err error) {
	from, err := wal.SegmentStart(dir, after+1)
	if err != nil {
		return 0, 0, fmt.Errorf("tsdb replay: %w", err)
	}
	var r walReader
	_, err = wal.Replay(dir, from-1, func(rec wal.Record) error {
		batch, derr := r.read(rec.Data, rec.Seq > after)
		if derr != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, derr)
		}
		s.mu.Lock()
		var t time.Time
		c := slots{step: s.step}
		for i := range batch {
			sm := &batch[i]
			if i == 0 || sm.Time != batch[i-1].Time {
				t = sm.Time.Truncate(s.step)
			}
			e := s.lookupLocked(sm)
			if e == nil {
				e = s.addLocked(sm.ID)
			}
			r.names[r.handles[i]-1].ref = e.ref
			if s.applyLocked(e, t, c.of(t, e.start), sm.Value) != nil {
				skipped++
			} else {
				applied++
			}
		}
		s.mu.Unlock()
		return nil
	})
	if applied > 0 {
		obsReplayed.Add(uint64(applied))
	}
	if err != nil {
		return applied, skipped, fmt.Errorf("tsdb replay: %w", err)
	}
	return applied, skipped, nil
}
