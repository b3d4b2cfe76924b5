package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"mcorr/internal/timeseries"
)

// sameValue is Float64bits equality with every NaN equal to every other:
// a row says "no sample" one way, whatever the store holds.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkRows compares the reader against the store's map-and-clone API: its
// ready time against the minimum LastTime over ids, and its row at every t
// in ts against the first value of QueryAll(t, t+step), absent reading NaN.
func checkRows(t *testing.T, what string, s *Store, r *RowReader, ids []timeseries.MeasurementID, ts []time.Time) {
	t.Helper()
	var want time.Time
	wantOK := true
	for i, id := range ids {
		last, ok := s.LastTime(id)
		if !ok {
			wantOK = false
			break
		}
		if i == 0 || last.Before(want) {
			want = last
		}
	}
	if got, ok := r.Ready(); ok != wantOK || (ok && !got.Equal(want)) {
		t.Fatalf("%s: Ready = %v, %v; LastTime minimum = %v, %v", what, got, ok, want, wantOK)
	}
	row := make([]float64, len(ids))
	for _, tm := range ts {
		r.ReadRow(tm, row)
		ds := s.QueryAll(tm, tm.Add(s.Step()))
		for i, id := range ids {
			want := math.NaN()
			if sr := ds.Get(id); sr != nil && sr.Len() > 0 {
				want = sr.Values[0]
			}
			if !sameValue(row[i], want) {
				t.Fatalf("%s: row at %v, %s: reader %v (%x), QueryAll %v (%x)", what, tm, id,
					row[i], math.Float64bits(row[i]), want, math.Float64bits(want))
			}
		}
	}
}

// TestRowReaderMatchesQueryAll drives a store with seeded random appends —
// gaps, NaN and ±Inf samples, overwrites of the newest slot, stale
// rejections, a series that appears late and one that never does, with and
// without retention trims — and holds a reader bound before the first
// append to the answers LastTime and QueryAll give.
func TestRowReaderMatchesQueryAll(t *testing.T) {
	const slots = 64
	for seed := int64(1); seed <= 12; seed++ {
		for _, retention := range []int{0, 5} {
			what := fmt.Sprintf("seed %d retention %d", seed, retention)
			rng := rand.New(rand.NewSource(seed))
			s := newStore(t, retention)
			ids := make([]timeseries.MeasurementID, 6)
			for i := range ids {
				ids[i] = timeseries.MeasurementID{Machine: fmt.Sprintf("m%d", i/2), Metric: fmt.Sprintf("c%d", i)}
			}
			const late, never = 4, 5
			r := s.Rows(ids)
			// Every time a row can be asked for: each grid slot around the
			// data, and a time inside each sampling interval.
			var ts []time.Time
			for k := -2; k < slots+2; k++ {
				ts = append(ts, t0.Add(time.Duration(k)*time.Minute), t0.Add(time.Duration(k)*time.Minute+20*time.Second))
			}
			newest := make([]int, len(ids)) // newest slot appended per id, −1 before the first
			for i := range newest {
				newest[i] = -1
			}
			for op := 0; op < 400; op++ {
				i := rng.Intn(late)
				if op > 150 && rng.Intn(4) == 0 {
					i = late
				}
				slot := newest[i] + []int{-2, -1, 0, 0, 1, 1, 1, 1, 2, 4}[rng.Intn(10)]
				if slot < 0 || slot >= slots {
					continue
				}
				v := rng.NormFloat64()
				switch rng.Intn(12) {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1 - 2*rng.Intn(2))
				}
				err := s.Append(Sample{ID: ids[i], Time: t0.Add(time.Duration(slot)*time.Minute + 7*time.Second), Value: v})
				if stale := slot < newest[i]; stale != errors.Is(err, ErrStale) || (!stale && err != nil) {
					t.Fatalf("%s: append of slot %d after %d: %v", what, slot, newest[i], err)
				}
				if slot > newest[i] {
					newest[i] = slot
				}
				probe := ts
				if op%40 != 0 { // the full sweep now and then, the neighbourhood of the write always
					probe = ts[max(0, 2*slot-8):min(len(ts), 2*slot+12)]
				}
				checkRows(t, what, s, r, ids, probe)
			}
			if s.Len(ids[never]) != 0 || s.Len(ids[late]) == 0 {
				t.Fatalf("%s: the late series has %d samples, the absent one %d", what, s.Len(ids[late]), s.Len(ids[never]))
			}
			// A reader bound now, to the other column order, reads the same store.
			rev := append([]timeseries.MeasurementID(nil), ids...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			checkRows(t, what+" reversed", s, s.Rows(rev), rev, ts)
		}
	}
}

// TestRowReaderAcrossRetentionTrim binds a reader while the series are
// short, then appends far past the retention cap — every append trims, and
// the value slices are reallocated several times over — and requires the
// old reader to read what a fresh one and QueryAll read.
func TestRowReaderAcrossRetentionTrim(t *testing.T) {
	const retention, n = 4, 100
	s := newStore(t, retention)
	ids := []timeseries.MeasurementID{idCPU, idNet}
	for _, id := range ids {
		if err := s.Append(Sample{ID: id, Time: t0, Value: -1}); err != nil {
			t.Fatal(err)
		}
	}
	bound := s.Rows(ids)
	var ts []time.Time
	for k := 0; k < n+2; k++ {
		ts = append(ts, t0.Add(time.Duration(k)*time.Minute))
	}
	for k := 1; k < n; k++ {
		for c, id := range ids {
			if err := s.Append(Sample{ID: id, Time: ts[k], Value: float64(10*k + c)}); err != nil {
				t.Fatal(err)
			}
		}
		if k%9 == 0 {
			checkRows(t, fmt.Sprintf("after %d appends", k), s, bound, ids, ts)
		}
	}
	checkRows(t, "bound before the trims", s, bound, ids, ts)
	checkRows(t, "bound after the trims", s, s.Rows(ids), ids, ts)
	row := make([]float64, len(ids))
	bound.ReadRow(ts[n-retention-1], row)
	if !math.IsNaN(row[0]) || !math.IsNaN(row[1]) {
		t.Errorf("row %d was trimmed but reads %v", n-retention-1, row)
	}
	bound.ReadRow(ts[n-1], row)
	if row[0] != float64(10*(n-1)) || row[1] != float64(10*(n-1)+1) {
		t.Errorf("newest row reads %v", row)
	}
	if got := s.Len(idCPU); got != retention {
		t.Errorf("series holds %d samples, retention is %d", got, retention)
	}
}

// TestRowReaderSurvivesLoadDataset: LoadDataset overwrites a series a
// reader is already bound to; the reader must see the loaded samples.
func TestRowReaderSurvivesLoadDataset(t *testing.T) {
	s := newStore(t, 0)
	if err := s.Append(Sample{ID: idCPU, Time: t0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	ids := []timeseries.MeasurementID{idCPU, idNet}
	r := s.Rows(ids)
	row := make([]float64, 2)
	r.ReadRow(t0, row) // binds idCPU's series; idNet has none yet
	ds := timeseries.NewDataset()
	for c, id := range ids {
		ds.Add(&timeseries.Series{ID: id, Start: t0, Step: time.Minute, Values: []float64{float64(10 + c), float64(20 + c)}})
	}
	if err := s.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}
	checkRows(t, "after LoadDataset", s, r, ids, []time.Time{t0.Add(-time.Minute), t0, t0.Add(time.Minute), t0.Add(2 * time.Minute)})
	if r.ReadRow(t0.Add(time.Minute), row); row[0] != 20 || row[1] != 21 {
		t.Errorf("row after LoadDataset reads %v", row)
	}
}

// benchStore fills a store with rows samples of each of l measurements.
func benchStore(b *testing.B, l, rows, retention int) (*Store, []timeseries.MeasurementID) {
	b.Helper()
	s, err := NewStore(time.Minute, retention)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]timeseries.MeasurementID, l)
	for i := range ids {
		ids[i] = timeseries.MeasurementID{Machine: fmt.Sprintf("m%03d", i/8), Metric: fmt.Sprintf("c%d", i%8)}
	}
	batch := make([]Sample, l)
	for k := 0; k < rows; k++ {
		for i, id := range ids {
			batch[i] = Sample{ID: id, Time: t0.Add(time.Duration(k) * time.Minute), Value: float64(k + i)}
		}
		if err := s.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	return s, ids
}

var benchSink float64

// BenchmarkStoreRowAt reads one row of l=600 measurements out of a store
// holding a day of them: through the bound reader, and — the yardstick —
// the way the monitor used to, a LastTime scan plus QueryAll copied into a
// map.
func BenchmarkStoreRowAt(b *testing.B) {
	const l, rows = 600, 288
	s, ids := benchStore(b, l, rows, 0)
	at := func(i int) time.Time { return t0.Add(time.Duration(i%rows) * time.Minute) }
	b.Run("l=600", func(b *testing.B) {
		r := s.Rows(ids)
		row := make([]float64, l)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Ready(); !ok {
				b.Fatal("not ready")
			}
			r.ReadRow(at(i), row)
			benchSink += row[l-1]
		}
	})
	b.Run("l=600/QueryAll", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, id := range ids {
				if _, ok := s.LastTime(id); !ok {
					b.Fatal("not ready")
				}
			}
			ds := s.QueryAll(at(i), at(i).Add(time.Minute))
			row := make(map[timeseries.MeasurementID]float64, l)
			for _, id := range ids {
				if sr := ds.Get(id); sr != nil && sr.Len() > 0 {
					row[id] = sr.Values[0]
				}
			}
			benchSink += row[ids[l-1]]
		}
	})
}

// BenchmarkStoreAppendAtRetention appends to a series that sits at its
// retention cap, so every append trims: O(1) amortised, not a move of the
// whole series.
func BenchmarkStoreAppendAtRetention(b *testing.B) {
	for _, retention := range []int{288, 28800} {
		b.Run(fmt.Sprintf("retention=%d", retention), func(b *testing.B) {
			s, err := NewStore(time.Minute, retention)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < retention; k++ {
				if err := s.Append(Sample{ID: idCPU, Time: t0.Add(time.Duration(k) * time.Minute), Value: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(Sample{ID: idCPU, Time: t0.Add(time.Duration(retention+i) * time.Minute), Value: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
