package tsdb

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"mcorr/internal/timeseries"
)

var (
	idCPU = timeseries.MeasurementID{Machine: "m1", Metric: "cpu"}
	idNet = timeseries.MeasurementID{Machine: "m2", Metric: "net"}
	t0    = timeseries.MonitoringStart
)

func newStore(t *testing.T, retention int) *Store {
	t.Helper()
	s, err := NewStore(time.Minute, retention)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0, 0); err == nil {
		t.Error("zero step: want error")
	}
	if _, err := NewStore(time.Second, -1); err == nil {
		t.Error("negative retention: want error")
	}
}

func TestAppendAndQuery(t *testing.T) {
	s := newStore(t, 0)
	for i := 0; i < 5; i++ {
		if err := s.Append(Sample{ID: idCPU, Time: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := s.Query(idCPU, t0, t0.Add(5*time.Minute))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got.Len() != 5 || got.Values[3] != 3 {
		t.Errorf("Query = %v", got.Values)
	}
	if s.Len(idCPU) != 5 || s.Len(idNet) != 0 {
		t.Errorf("Len = %d / %d", s.Len(idCPU), s.Len(idNet))
	}
	if s.Step() != time.Minute {
		t.Errorf("Step = %v", s.Step())
	}
}

func TestQueryUnknown(t *testing.T) {
	s := newStore(t, 0)
	if _, err := s.Query(idCPU, t0, t0.Add(time.Hour)); err == nil {
		t.Error("unknown measurement: want error")
	}
}

func TestAppendGapFillsNaN(t *testing.T) {
	s := newStore(t, 0)
	s.Append(Sample{ID: idCPU, Time: t0, Value: 1})
	s.Append(Sample{ID: idCPU, Time: t0.Add(3 * time.Minute), Value: 4})
	got, err := s.Query(idCPU, t0, t0.Add(4*time.Minute))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got.Len() != 4 {
		t.Fatalf("Len = %d", got.Len())
	}
	if !math.IsNaN(got.Values[1]) || !math.IsNaN(got.Values[2]) {
		t.Errorf("gap should be NaN: %v", got.Values)
	}
	if got.Values[3] != 4 {
		t.Errorf("Values[3] = %g", got.Values[3])
	}
}

func TestAppendStaleRejected(t *testing.T) {
	s := newStore(t, 0)
	s.Append(Sample{ID: idCPU, Time: t0.Add(5 * time.Minute), Value: 1})
	if err := s.Append(Sample{ID: idCPU, Time: t0, Value: 2}); err == nil {
		t.Error("stale sample: want error")
	}
	// Overwriting the latest slot is allowed (collector retry).
	if err := s.Append(Sample{ID: idCPU, Time: t0.Add(5 * time.Minute), Value: 9}); err != nil {
		t.Errorf("overwrite latest: %v", err)
	}
	got, _ := s.Query(idCPU, t0, t0.Add(time.Hour))
	if got.Values[got.Len()-1] != 9 {
		t.Error("overwrite did not take effect")
	}
}

func TestAppendTruncatesOntoGrid(t *testing.T) {
	s := newStore(t, 0)
	s.Append(Sample{ID: idCPU, Time: t0.Add(90 * time.Second), Value: 7})
	lt, ok := s.LastTime(idCPU)
	if !ok || !lt.Equal(t0.Add(time.Minute)) {
		t.Errorf("LastTime = %v, %v", lt, ok)
	}
}

func TestRetentionRing(t *testing.T) {
	s := newStore(t, 3)
	for i := 0; i < 10; i++ {
		s.Append(Sample{ID: idCPU, Time: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	if s.Len(idCPU) != 3 {
		t.Fatalf("Len = %d, want 3", s.Len(idCPU))
	}
	got, _ := s.Query(idCPU, t0, t0.Add(time.Hour))
	want := []float64{7, 8, 9}
	for i := range want {
		if got.Values[i] != want[i] {
			t.Errorf("retained = %v, want %v", got.Values, want)
			break
		}
	}
}

func TestAppendBatchStopsAtError(t *testing.T) {
	s := newStore(t, 0)
	batch := []Sample{
		{ID: idCPU, Time: t0.Add(time.Minute), Value: 1},
		{ID: idCPU, Time: t0, Value: 2}, // stale
		{ID: idNet, Time: t0, Value: 3},
	}
	if err := s.AppendBatch(batch); err == nil {
		t.Fatal("stale batch member: want error")
	}
	if s.Len(idNet) != 0 {
		t.Error("batch should stop at the failing sample")
	}
}

func TestAppendBatchPartialResume(t *testing.T) {
	s := newStore(t, 0)
	batch := []Sample{
		{ID: idCPU, Time: t0, Value: 1},
		{ID: idCPU, Time: t0.Add(time.Minute), Value: 2},
		{ID: idCPU, Time: t0, Value: 3}, // stale: stops the batch here
		{ID: idNet, Time: t0, Value: 4},
	}
	err := s.AppendBatch(batch)
	var pe *PartialAppendError
	if !errors.As(err, &pe) {
		t.Fatalf("AppendBatch: got %v, want *PartialAppendError", err)
	}
	if pe.Stored != 2 {
		t.Fatalf("Stored = %d, want 2", pe.Stored)
	}
	// Resuming from the reported offset (skipping the poisoned sample, as
	// a sender that trims its buffer by Stored and drops the reject would)
	// must deliver the tail exactly once.
	if err := s.AppendBatch(batch[pe.Stored+1:]); err != nil {
		t.Fatalf("resume append: %v", err)
	}
	if got := s.Len(idCPU); got != 2 {
		t.Errorf("cpu samples = %d, want 2 (no duplicates)", got)
	}
	if got := s.Len(idNet); got != 1 {
		t.Errorf("net samples = %d, want 1", got)
	}
	// Re-sending the already-applied prefix must be rejected stale, not
	// silently duplicated — the property the ack protocol relies on.
	if err := s.AppendBatch(batch[:1]); err == nil {
		t.Error("re-sent prefix: want stale error")
	}
}

func TestQueryAllAndIDs(t *testing.T) {
	s := newStore(t, 0)
	s.Append(Sample{ID: idNet, Time: t0, Value: 1})
	s.Append(Sample{ID: idCPU, Time: t0, Value: 2})
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != idCPU {
		t.Errorf("IDs = %v", ids)
	}
	ds := s.QueryAll(t0, t0.Add(time.Minute))
	if ds.Len() != 2 || ds.Get(idNet).Values[0] != 1 {
		t.Error("QueryAll wrong")
	}
}

func TestQueryReturnsCopy(t *testing.T) {
	s := newStore(t, 0)
	s.Append(Sample{ID: idCPU, Time: t0, Value: 1})
	got, _ := s.Query(idCPU, t0, t0.Add(time.Minute))
	got.Values[0] = 99
	again, _ := s.Query(idCPU, t0, t0.Add(time.Minute))
	if again.Values[0] != 1 {
		t.Error("Query must return a copy")
	}
}

func TestLoadDataset(t *testing.T) {
	s := newStore(t, 0)
	ds := timeseries.NewDataset()
	src, _ := timeseries.NewSeries(idCPU, t0, time.Minute)
	src.Values = []float64{1, 2, 3}
	ds.Add(src)
	if err := s.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if s.Len(idCPU) != 3 {
		t.Errorf("Len = %d", s.Len(idCPU))
	}
	// Step mismatch rejected.
	bad := timeseries.NewDataset()
	b, _ := timeseries.NewSeries(idNet, t0, time.Second)
	b.Values = []float64{1}
	bad.Add(b)
	if err := s.LoadDataset(bad); err == nil {
		t.Error("step mismatch: want error")
	}
	// Retention applies on load.
	s2 := newStore(t, 2)
	if err := s2.LoadDataset(ds); err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	if s2.Len(idCPU) != 2 {
		t.Errorf("retained = %d, want 2", s2.Len(idCPU))
	}
	got, _ := s2.Query(idCPU, t0, t0.Add(time.Hour))
	if got.Values[0] != 2 || got.Values[1] != 3 {
		t.Errorf("retained values = %v", got.Values)
	}
}

func TestLastTimeUnknown(t *testing.T) {
	s := newStore(t, 0)
	if _, ok := s.LastTime(idCPU); ok {
		t.Error("LastTime of unknown should be false")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := newStore(t, 5)
	for i := 0; i < 4; i++ {
		s.Append(Sample{ID: idCPU, Time: t0.Add(time.Duration(i) * time.Minute), Value: float64(i * i)})
	}
	s.Append(Sample{ID: idNet, Time: t0, Value: 7})
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if r.Step() != time.Minute || r.Len(idCPU) != 4 || r.Len(idNet) != 1 {
		t.Error("restored store differs")
	}
	got, _ := r.Query(idCPU, t0, t0.Add(time.Hour))
	if got.Values[3] != 9 {
		t.Errorf("restored values = %v", got.Values)
	}
	// Restore of garbage fails.
	if _, err := Restore(bytes.NewBufferString("not a gob")); err == nil {
		t.Error("garbage restore: want error")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := newStore(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := timeseries.MeasurementID{Machine: "m", Metric: string(rune('a' + g))}
			for i := 0; i < 500; i++ {
				_ = s.Append(Sample{ID: id, Time: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
				if i%50 == 0 {
					_, _ = s.Query(id, t0, t0.Add(time.Hour))
					s.IDs()
				}
			}
		}(g)
	}
	wg.Wait()
	if len(s.IDs()) != 8 {
		t.Errorf("IDs = %d", len(s.IDs()))
	}
}
