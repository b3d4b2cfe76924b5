package shardnet

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

func mid(machine, metric string) timeseries.MeasurementID {
	return timeseries.MeasurementID{Machine: machine, Metric: metric}
}

func TestRowFrameRoundTrip(t *testing.T) {
	ids := []timeseries.MeasurementID{
		mid("m0", "cpu"), mid("m0", "mem"), mid("m1", "cpu"), mid("m1", "mem"),
	}
	row := manager.Row{
		Time: time.Date(2008, time.May, 30, 12, 6, 0, 0, time.UTC),
		Values: map[timeseries.MeasurementID]float64{
			ids[0]: 0.25,
			ids[2]: math.NaN(),
			ids[3]: -1e300,
		},
	}
	vals := make([]float64, len(ids))
	row.FillValues(ids, vals)
	frame := encodeRowFrame(77, row.Time, vals)
	// The absent measurement and the NaN one are the same gap: neither is
	// on the wire.
	if want := 20 + 2*10; len(frame) != want {
		t.Fatalf("frame of %d bytes, want %d", len(frame), want)
	}
	got := []float64{1, 2, 3, 4} // stale values the decode must overwrite
	seq, tm, err := decodeRowFrame(frame, got)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if seq != 77 {
		t.Fatalf("seq = %d", seq)
	}
	if !tm.Equal(row.Time) {
		t.Fatalf("time = %v", tm)
	}
	for i, id := range ids {
		want, ok := row.Values[id]
		if !ok || math.IsNaN(want) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("%v: gap decoded as %v", id, got[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%v: %x != %x", id, math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	if _, _, err := decodeRowFrame(frame[:10], got); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, _, err := decodeRowFrame(frame, got[:3]); err == nil {
		t.Fatal("frame addressing measurement 3 decoded into a row of 3")
	}
}

// decodeOutcomes reads back every frame appendOutcomeFrames laid out in
// buf, the way writeOutcomeFrames walks them.
func decodeOutcomes(t *testing.T, buf []byte) (frames []outcomeFrame, merged []manager.Outcome) {
	t.Helper()
	for len(buf) > 0 {
		n := outcomeHeader + outcomeSize*int(binary.BigEndian.Uint32(buf[16:]))
		f, err := decodeOutcomeFrame(buf[:n])
		if err != nil {
			t.Fatalf("decode frame %d: %v", len(frames), err)
		}
		if f.Offset != len(merged) {
			t.Fatalf("frame %d at offset %d, want %d", len(frames), f.Offset, len(merged))
		}
		for i := 0; i < f.Count; i++ {
			merged = append(merged, f.At(i))
		}
		frames = append(frames, f)
		buf = buf[n:]
	}
	return frames, merged
}

func TestOutcomePackingRoundTrip(t *testing.T) {
	outs := make([]manager.Outcome, 2*maxOutcomesPerFrame+17)
	for i := range outs {
		outs[i] = manager.Outcome{
			Fitness: float64(i) * 0.001,
			Prob:    1 / float64(i+1),
			Scored:  i%2 == 0,
			Gap:     i%3 == 0,
			Grown:   i%5 == 0,
			Steady:  i%7 == 0,
		}
	}
	for _, tc := range []struct {
		name   string
		seq    uint64
		outs   []manager.Outcome
		frames int
	}{
		{"three frames", 42, outs, 3},
		{"exactly one full frame", 43, outs[:maxOutcomesPerFrame], 1},
		{"empty shard still answers", 7, nil, 1},
		// A float64 holds integers exactly only up to 2^53; the row
		// sequence is a u64 on the wire and must survive beyond it.
		{"seq above 2^53", 1<<53 + 1, outs[:3], 1},
		{"seq at the top of the range", math.MaxUint64, outs[:1], 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := appendOutcomeFrames(nil, tc.seq, tc.outs)
			frames, merged := decodeOutcomes(t, buf)
			if len(frames) != tc.frames {
				t.Fatalf("frames = %d, want %d", len(frames), tc.frames)
			}
			for _, f := range frames {
				if f.Seq != tc.seq || f.Total != len(tc.outs) {
					t.Fatalf("header = %+v, want seq %d total %d", f, tc.seq, len(tc.outs))
				}
			}
			if len(merged) != len(tc.outs) {
				t.Fatalf("merged %d outcomes, want %d", len(merged), len(tc.outs))
			}
			for i, o := range tc.outs {
				if merged[i] != o {
					t.Fatalf("outcome %d: %+v != %+v", i, merged[i], o)
				}
			}
		})
	}

	good := appendOutcomeFrames(nil, 9, outs[:4])
	for name, bad := range map[string][]byte{
		"bogus":                []byte("bogus"),
		"truncated cell":       good[:len(good)-1],
		"count beyond payload": binary.BigEndian.AppendUint32(append([]byte(nil), good[:16]...), 5),
		"offset past total": append(binary.BigEndian.AppendUint32(append([]byte(nil), good[:12]...), 1),
			good[16:]...),
	} {
		if _, err := decodeOutcomeFrame(bad); err == nil {
			t.Errorf("%s: malformed frame decoded", name)
		}
	}
}
