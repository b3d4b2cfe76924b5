package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

// TestWrongRefNeverMisfiles: a Ref that names another series, or no series
// at all, costs a lookup; the sample is filed under its own ID, and the
// handle written back is its own series'.
func TestWrongRefNeverMisfiles(t *testing.T) {
	s := newStore(t, 0)
	batch := []Sample{{ID: idCPU, Time: t0, Value: 1}, {ID: idNet, Time: t0, Value: 2}}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	cpuRef, netRef := batch[0].Ref, batch[1].Ref
	if cpuRef == 0 || netRef == 0 || cpuRef == netRef {
		t.Fatalf("handles %d, %d: want two distinct non-zero handles", cpuRef, netRef)
	}
	idDisk := timeseries.MeasurementID{Machine: "m3", Metric: "disk"}
	wrong := []Sample{
		{ID: idNet, Time: t0.Add(time.Minute), Value: 3, Ref: cpuRef},     // another series'
		{ID: idCPU, Time: t0.Add(time.Minute), Value: 4, Ref: 1 << 20},    // out of range
		{ID: idDisk, Time: t0.Add(time.Minute), Value: 5, Ref: netRef},    // a series the store lacks
		{ID: idCPU, Time: t0.Add(2 * time.Minute), Value: 6, Ref: cpuRef}, // right
	}
	if err := s.AppendBatch(wrong); err != nil {
		t.Fatal(err)
	}
	if wrong[0].Ref != netRef || wrong[1].Ref != cpuRef || wrong[3].Ref != cpuRef {
		t.Errorf("written-back handles %d %d %d, want %d %d %d", wrong[0].Ref, wrong[1].Ref, wrong[3].Ref, netRef, cpuRef, cpuRef)
	}
	if r := wrong[2].Ref; r == 0 || r == cpuRef || r == netRef {
		t.Errorf("new series got handle %d, want a fresh one", r)
	}
	for _, c := range []struct {
		id   timeseries.MeasurementID
		want []float64
	}{
		{idCPU, []float64{1, 4, 6}},
		{idNet, []float64{2, 3}},
		{idDisk, []float64{5}},
	} {
		got, err := s.Query(c.id, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if fmt.Sprint(got.Values) != fmt.Sprint(c.want) {
			t.Errorf("%s holds %v, want %v", c.id, got.Values, c.want)
		}
	}
}

// TestUnloggableSampleIsNotApplied: a sample the WAL record cannot hold
// stops the batch before it is applied, so Stored is the logged prefix and
// replay recovers exactly what was acked. A long name that fits is logged
// and recovered like any other.
func TestUnloggableSampleIsNotApplied(t *testing.T) {
	for _, c := range []struct {
		name       string
		machineLen int
		stored     int
	}{
		{"longer than the wire allows", 70000, 2},
		{"longer than a WAL record", wal.MaxRecordSize, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, l := durableStore(t, dir)
			long := timeseries.MeasurementID{Machine: strings.Repeat("x", c.machineLen), Metric: "cpu"}
			batch := []Sample{{ID: idCPU, Time: t0, Value: 1}, {ID: long, Time: t0, Value: 2}}
			err := s.AppendBatch(batch)
			var pe *PartialAppendError
			switch {
			case c.stored == len(batch) && err != nil:
				t.Fatalf("AppendBatch: %v", err)
			case c.stored < len(batch) && (!errors.As(err, &pe) || pe.Stored != c.stored || !errors.Is(err, wal.ErrTooBig)):
				t.Fatalf("AppendBatch = %v, want PartialAppendError{Stored: %d} wrapping wal.ErrTooBig", err, c.stored)
			}
			if got := len(s.IDs()); got != c.stored {
				t.Errorf("store holds %d series, want the %d applied", got, c.stored)
			}
			l.Close()
			re := newStore(t, 0)
			applied, skipped, err := re.ReplayWAL(dir, 0)
			if err != nil || applied != c.stored || skipped != 0 {
				t.Fatalf("ReplayWAL = %d applied, %d skipped, %v; want the %d acked", applied, skipped, err, c.stored)
			}
			if got, want := dump(re), dump(s); got != want {
				t.Errorf("replayed store differs:\n%.200s\nwant\n%.200s", got, want)
			}
		})
	}
}

// dump renders a store's contents at %.17g, the trajectory tests' notion of
// "the same".
func dump(s *Store) string {
	var b strings.Builder
	for _, id := range s.IDs() {
		sr, _ := s.Query(id, time.Time{}, t0.AddDate(1, 0, 0))
		fmt.Fprintf(&b, "%s %s", id, sr.Start.Format(time.RFC3339Nano))
		for _, v := range sr.Values {
			fmt.Fprintf(&b, " %.17g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// crashFixture feeds the same rows to a reference store and to durable
// stores that "crash" (are dropped without Close), recover from their last
// checkpoint — a snapshot and the WAL sequence it covers — and go on.
type crashFixture struct {
	t    *testing.T
	dir  string
	opts wal.Options
	ref  *Store // every row, never interrupted
	ids  []timeseries.MeasurementID

	s    *Store
	l    *wal.Log
	snap []byte // the last checkpoint's store
	seq  uint64 // and the WAL sequence it covers
	row  int    // rows fed so far
}

func newCrashFixture(t *testing.T, opts wal.Options, series int) *crashFixture {
	f := &crashFixture{t: t, dir: t.TempDir(), opts: opts, ref: newStore(t, 0)}
	for i := 0; i < series; i++ {
		f.ids = append(f.ids, timeseries.MeasurementID{Machine: fmt.Sprintf("srv-%02d", i/3), Metric: fmt.Sprintf("metric%d", i%3)})
	}
	f.s = newStore(t, 0)
	f.checkpoint() // the empty store, covering nothing
	f.open()
	return f
}

// open starts appending: the log resumes its last segment.
func (f *crashFixture) open() {
	l, err := wal.Open(f.dir, f.opts)
	if err != nil {
		f.t.Fatalf("wal.Open: %v", err)
	}
	f.t.Cleanup(func() { l.Close() })
	f.l = l
	f.s.AttachWAL(l)
}

// feed appends n rows, one batch each, its samples in order(ids) and a
// few from the next row at the end, as a late agent would send them.
func (f *crashFixture) feed(n int, order func([]timeseries.MeasurementID) []timeseries.MeasurementID) {
	for ; n > 0; n-- {
		tm := t0.Add(time.Duration(f.row) * time.Minute)
		var batch []Sample
		for _, id := range order(f.ids) {
			batch = append(batch, Sample{ID: id, Time: tm, Value: math.Sin(float64(f.row*len(f.ids)) + float64(len(batch)))})
		}
		batch = append(batch, Sample{ID: f.ids[f.row%len(f.ids)], Time: tm.Add(time.Minute), Value: float64(f.row)})
		for _, st := range []*Store{f.ref, f.s} {
			if err := st.AppendBatch(append([]Sample(nil), batch...)); err != nil {
				f.t.Fatalf("row %d: %v", f.row, err)
			}
		}
		f.row++
	}
}

// checkpoint snapshots the store and drops the segments it covers.
func (f *crashFixture) checkpoint() {
	if f.l != nil {
		f.seq = f.l.LastSeq()
	}
	var buf bytes.Buffer
	if err := f.s.Snapshot(&buf); err != nil {
		f.t.Fatal(err)
	}
	f.snap = buf.Bytes()
	if f.l != nil {
		if err := f.l.TruncateBefore(f.seq); err != nil {
			f.t.Fatal(err)
		}
	}
}

// crash drops the store and its log without closing either, recovers a
// new store from the checkpoint and the WAL, and requires it to hold
// exactly what the reference holds.
func (f *crashFixture) crash() {
	f.t.Helper()
	s, err := Restore(bytes.NewReader(f.snap))
	if err != nil {
		f.t.Fatalf("Restore: %v", err)
	}
	if _, _, err := s.ReplayWAL(f.dir, f.seq); err != nil {
		f.t.Fatalf("ReplayWAL after row %d: %v", f.row, err)
	}
	if got, want := dump(s), dump(f.ref); got != want {
		f.t.Fatalf("recovered after row %d:\n%s\nwant\n%s", f.row, got, want)
	}
	f.s = s
	f.open()
}

func forward(ids []timeseries.MeasurementID) []timeseries.MeasurementID { return ids }

func reversed(ids []timeseries.MeasurementID) []timeseries.MeasurementID {
	out := make([]timeseries.MeasurementID, len(ids))
	for i, id := range ids {
		out[len(ids)-1-i] = id
	}
	return out
}

// TestReplayReadsDefinitionsTheCheckpointCovers: a checkpoint taken
// mid-segment, after its handles were defined, then a crash. The records
// after the checkpoint use handles only records before it define.
func TestReplayReadsDefinitionsTheCheckpointCovers(t *testing.T) {
	f := newCrashFixture(t, wal.Options{}, 12)
	f.feed(5, forward)
	f.checkpoint()
	f.feed(4, forward)
	if f.l.Segments() != 1 {
		t.Fatalf("%d segments, want the checkpoint inside the one", f.l.Segments())
	}
	f.crash()
}

// TestResumedSegmentRedefinesHandles: a restart appends into the segment
// the crashed process left, numbering handles in another order and adding
// a series, then crashes again; the second recovery replays records of
// both processes from one segment.
func TestResumedSegmentRedefinesHandles(t *testing.T) {
	f := newCrashFixture(t, wal.Options{}, 12)
	f.feed(3, forward)
	f.checkpoint()
	f.feed(3, forward)
	f.crash()
	f.ids = append(f.ids, timeseries.MeasurementID{Machine: "srv-late", Metric: "metric0"})
	f.feed(4, reversed)
	if f.l.Segments() != 1 {
		t.Fatalf("%d segments, want both processes in the one", f.l.Segments())
	}
	f.crash()
	f.feed(2, forward)
	f.crash()
}

// TestSmallSegmentsWithTruncation: segments rotate every few records and
// TruncateBefore drops covered ones between checkpoints; every recovery,
// from whichever segment holds the checkpoint, is exact.
func TestSmallSegmentsWithTruncation(t *testing.T) {
	f := newCrashFixture(t, wal.Options{SegmentBytes: 700}, 9)
	order := forward
	for round := 0; round < 6; round++ {
		f.feed(3, order)
		f.checkpoint()
		f.feed(2+round%3, order)
		if round%2 == 1 {
			f.crash()
			order = reversed
		}
	}
	if n := f.l.Segments(); n > 4 {
		t.Errorf("%d segments survive, want TruncateBefore to have dropped the covered ones", n)
	}
	f.crash()
}

// TestEncodeWALBatchThroughRefs: a batch a store has applied is encoded
// with one definition per series, found through the Refs AppendBatch left;
// a sample without a Ref, or whose Ref another ID took earlier in the
// batch, gets a definition of its own. Every encoding decodes to the batch.
func TestEncodeWALBatchThroughRefs(t *testing.T) {
	var batch []Sample
	for k := 0; k < 3; k++ {
		for _, id := range []timeseries.MeasurementID{idCPU, idNet} {
			batch = append(batch, Sample{ID: id, Time: t0.Add(time.Duration(k) * time.Minute), Value: float64(k)})
		}
	}
	noRefs := append([]Sample(nil), batch...)
	if err := newStore(t, 0).AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	wrong := append([]Sample(nil), batch...)
	wrong[3].Ref = wrong[0].Ref // net under cpu's handle
	wrong[5].Ref = 0
	sizes := map[string]int{}
	for name, in := range map[string][]Sample{"no refs": noRefs, "refs": batch, "wrong refs": wrong} {
		p, err := EncodeWALBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWALBatch(p)
		if err != nil || !sameSamples(got, batch) {
			t.Errorf("%s: decoded %v, %v; want the batch", name, got, err)
		}
		sizes[name] = len(p)
	}
	// Both IDs spell out in 2+2+3 bytes: six definitions, two, and four.
	def := 2 + len(idCPU.Machine) + len(idCPU.Metric)
	if sizes["no refs"]-sizes["refs"] != 4*def || sizes["wrong refs"]-sizes["refs"] != 2*def {
		t.Errorf("record sizes %v: want 4 and 2 definitions more than through the Refs", sizes)
	}
}
