package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"mcorr/internal/timeseries"
)

// FuzzDecodeWALRecord throws arbitrary payloads at the sample-record
// decoder: it must never panic, must size what it keeps by the payload
// (each definition and each sample is bytes of the input), must fail with
// ErrBadWALRecord and nothing else, and whatever it accepts must survive a
// round trip bit for bit. A reader that already holds definitions — the
// same payload read twice — must decode it exactly as a fresh one.
func FuzzDecodeWALRecord(f *testing.F) {
	batch := []Sample{
		{ID: timeseries.MeasurementID{Machine: "srv-01", Metric: "cpu"}, Time: t0, Value: 1.5},
		{ID: timeseries.MeasurementID{Machine: "srv-02", Metric: "cpu"}, Time: t0, Value: math.NaN()},
		{ID: timeseries.MeasurementID{Machine: "srv-01", Metric: "cpu"}, Time: t0.Add(time.Minute), Value: -0.0},
	}
	valid, err := EncodeWALBatch(batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn
	// A definition cut mid-string: the first machine name stops short.
	f.Add(valid[:4+1+1+1+3])
	// A sample under a handle nothing defined.
	undefined := binary.BigEndian.AppendUint32(nil, 1)
	undefined = append(undefined, 0) // no definitions
	undefined = binary.BigEndian.AppendUint64(undefined, uint64(t0.UnixNano()))
	undefined = append(undefined, 1, 7) // one sample, handle 7
	undefined = binary.BigEndian.AppendUint64(undefined, math.Float64bits(2))
	f.Add(undefined)
	// Counts far beyond the bytes behind them.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add(append(binary.BigEndian.AppendUint32(nil, 2), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03, 1, 0, 0, 0, 0, 0, 0, 0, 0))
	// A definition of a handle past the next free one.
	f.Add([]byte{0, 0, 0, 0, 1, 9, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var r walReader
		got, err := r.read(payload, true)
		if len(r.names) > len(payload)/2 || len(got) > len(payload)/walMinSample {
			t.Fatalf("%d-byte payload left %d definitions and %d samples", len(payload), len(r.names), len(got))
		}
		if err != nil {
			if !errors.Is(err, ErrBadWALRecord) {
				t.Fatalf("error %v does not wrap ErrBadWALRecord", err)
			}
			return
		}
		first := append([]Sample(nil), got...)
		again, err := r.read(payload, true)
		if err != nil || !sameSamples(again, first) {
			t.Fatalf("second read of an accepted record: %v", err)
		}
		enc, err := EncodeWALBatch(first)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeWALBatch(enc)
		if err != nil || !sameSamples(back, first) {
			t.Fatalf("round trip: %v", err)
		}
	})
}

func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Time.Equal(b[i].Time) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}
