package collector

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader. The decoder
// must never panic, must bound its allocations (MaxFrameSize), and any
// frame it accepts must survive a write/read round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	// A well-formed hello and an empty samples frame as live seeds, next
	// to the checked-in corpus under testdata/fuzz.
	var hello bytes.Buffer
	if err := WriteFrame(&hello, Frame{Type: MsgHello, Payload: []byte("agent-1")}); err != nil {
		f.Fatal(err)
	}
	f.Add(hello.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, Frame{Type: MsgSamples, Payload: EncodeAck(0)}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	// A large frame followed by a smaller one: the second is read into a
	// buffer the first grew.
	var shrink bytes.Buffer
	for _, n := range []int{300, 12} {
		if err := WriteFrame(&shrink, Frame{Type: MsgSamples, Payload: bytes.Repeat([]byte{byte(n)}, n)}); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(shrink.Bytes())

	// reused outlives one input, so each input is read into a buffer an
	// earlier one left behind.
	var reused []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every frame of the input, read fresh and read into the reused
		// buffer, must come out the same, down to the error.
		fresh, into := bytes.NewReader(data), bytes.NewReader(data)
		for {
			want, werr := ReadFrame(fresh)
			got, gerr := readFrameInto(into, &reused)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("reused buffer: error %v, fresh read: %v", gerr, werr)
			}
			if werr != nil {
				break
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("reused buffer read %+v, fresh read %+v", got, want)
			}
		}

		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxFrameSize {
			t.Fatalf("accepted %d-byte payload beyond MaxFrameSize", len(fr.Payload))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode accepted frame: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-read re-encoded frame: %v", err)
		}
		if again.Type != fr.Type || !bytes.Equal(again.Payload, fr.Payload) {
			t.Fatalf("round trip changed frame: %+v vs %+v", again, fr)
		}
	})
}

// FuzzDecodeSamples feeds arbitrary payloads to the sample-batch decoder.
// The decoder must never panic and must bound the batch size; any batch it
// accepts must survive an encode/decode round trip field for field.
func FuzzDecodeSamples(f *testing.F) {
	valid, err := EncodeSamples([]tsdb.Sample{
		{ID: timeseries.MeasurementID{Machine: "m1", Metric: "cpu"}, Time: time.Unix(0, 1_200_000_000).UTC(), Value: 0.5},
		{ID: timeseries.MeasurementID{Machine: "m2", Metric: "net"}, Time: time.Unix(42, 0).UTC(), Value: math.NaN()},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(EncodeAck(0)) // count-0 batch
	// A large batch, then a smaller one decoded over it.
	large := make([]tsdb.Sample, 50)
	for i := range large {
		large[i] = tsdb.Sample{ID: timeseries.MeasurementID{Machine: "m1", Metric: fmt.Sprint("cpu", i%7)}, Time: time.Unix(int64(i), 0).UTC(), Value: float64(i)}
	}
	// The same characters split two ways between machine and metric: the
	// second ID must not be taken for the first one's.
	split := []tsdb.Sample{
		{ID: timeseries.MeasurementID{Machine: "ab", Metric: "c"}, Time: time.Unix(1, 0).UTC(), Value: 1},
		{ID: timeseries.MeasurementID{Machine: "a", Metric: "bc"}, Time: time.Unix(2, 0).UTC(), Value: 2},
		{ID: timeseries.MeasurementID{Machine: "abc", Metric: ""}, Time: time.Unix(3, 0).UTC(), Value: 3},
	}
	for _, b := range [][]tsdb.Sample{large, large[:3], split} {
		p, err := EncodeSamples(b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}

	// reused and ids outlive one input, so each input is decoded into a
	// batch and an ID table earlier ones left behind.
	var reused []tsdb.Sample
	ids := newInternTable()
	f.Fuzz(func(t *testing.T, payload []byte) {
		batch, err := DecodeSamples(payload)
		got, gerr := decodeSamplesInto(reused, payload, ids)
		if fmt.Sprint(gerr) != fmt.Sprint(err) {
			t.Fatalf("reused decode: error %v, fresh decode: %v", gerr, err)
		}
		if err != nil {
			return
		}
		reused = got
		if len(got) != len(batch) {
			t.Fatalf("reused decode: %d samples, fresh decode %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i].ID != batch[i].ID || !got[i].Time.Equal(batch[i].Time) ||
				math.Float64bits(got[i].Value) != math.Float64bits(batch[i].Value) {
				t.Fatalf("sample %d: reused decode %+v, fresh decode %+v", i, got[i], batch[i])
			}
		}
		if len(batch) > MaxBatch {
			t.Fatalf("accepted batch of %d samples beyond MaxBatch", len(batch))
		}
		enc, err := EncodeSamples(batch)
		if err != nil {
			t.Fatalf("re-encode accepted batch: %v", err)
		}
		again, err := DecodeSamples(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(again) != len(batch) {
			t.Fatalf("round trip changed batch length: %d vs %d", len(again), len(batch))
		}
		for i := range batch {
			if again[i].ID != batch[i].ID || !again[i].Time.Equal(batch[i].Time) ||
				math.Float64bits(again[i].Value) != math.Float64bits(batch[i].Value) {
				t.Fatalf("sample %d changed in round trip: %+v vs %+v", i, again[i], batch[i])
			}
		}
	})
}
