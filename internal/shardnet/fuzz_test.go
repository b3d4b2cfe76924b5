package shardnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/timeseries"
)

// FuzzShardFrames drives the two binary decoders a peer's bytes reach —
// decodeRowFrame on the worker, decodeOutcomeFrame on the coordinator —
// with the input taken both as a hostile payload and as the recipe for a
// value to round-trip. A payload either is refused or decodes to something
// whose every count is backed by bytes actually present; encode then
// decode gives back the value bit for bit.
func FuzzShardFrames(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Hostile row payload.
		var rf rowFrame
		if err := decodeRowFrame(data, &rf); err == nil {
			if len(rf.Idx) != len(rf.Bits) || 20+10*len(rf.Idx) != len(data) {
				t.Fatalf("row frame of %d bytes decoded to %d indices, %d values", len(data), len(rf.Idx), len(rf.Bits))
			}
		} else if cap(rf.Idx) > len(data) || cap(rf.Bits) > len(data) {
			t.Fatalf("refused row frame of %d bytes sized a slice of %d", len(data), cap(rf.Idx))
		}

		// Hostile outcome payload.
		if of, err := decodeOutcomeFrame(data); err == nil {
			if len(data) != outcomeHeader+outcomeSize*of.Count || of.Offset+of.Count > of.Total {
				t.Fatalf("outcome frame of %d bytes decoded to [%d, %d) of %d", len(data), of.Offset, of.Offset+of.Count, of.Total)
			}
			for i := 0; i < of.Count; i++ {
				of.At(i)
			}
		}

		// Round trips. The first 16 bytes are the sequence and the plan
		// version (or the row time); every further 9 bytes one cell.
		var head [16]byte
		copy(head[:], data)
		seq, second := binary.BigEndian.Uint64(head[0:]), binary.BigEndian.Uint64(head[8:])
		var cells [][]byte // few enough for one outcome frame
		for rest := data[min(len(data), 16):]; len(rest) >= 9 && len(cells) < 64; rest = rest[9:] {
			cells = append(cells, rest[:9])
		}

		outs := make([]manager.Outcome, len(cells))
		for i, c := range cells {
			v := math.Float64frombits(binary.BigEndian.Uint64(c))
			outs[i] = manager.Outcome{Fitness: v, Prob: -v, Scored: c[8]&1 != 0, Gap: c[8]&2 != 0, Grown: c[8]&4 != 0, Steady: c[8]&8 != 0}
		}
		buf := appendOutcomeFrames(nil, seq, second, outs)
		of, err := decodeOutcomeFrame(buf)
		if err != nil {
			t.Fatalf("decode of an encoded outcome set: %v", err)
		}
		if of.Seq != seq || of.PlanVersion != second || of.Total != len(outs) || of.Offset != 0 || of.Count != len(outs) {
			t.Fatalf("outcome header %+v, want seq %d plan %d and all %d outcomes", of, seq, second, len(outs))
		}
		for i, o := range outs {
			got := of.At(i)
			if math.Float64bits(got.Fitness) != math.Float64bits(o.Fitness) || math.Float64bits(got.Prob) != math.Float64bits(o.Prob) ||
				got.Scored != o.Scored || got.Gap != o.Gap || got.Grown != o.Grown || got.Steady != o.Steady {
				t.Fatalf("outcome %d: %+v, want %+v", i, got, o)
			}
		}

		ids := make([]timeseries.MeasurementID, len(cells))
		row := manager.Row{Time: time.Unix(0, int64(second)).UTC(), Values: map[timeseries.MeasurementID]float64{}}
		var wantIdx []uint16
		var wantBits []uint64
		for i, c := range cells {
			ids[i] = timeseries.MeasurementID{Machine: "m", Metric: strconv.Itoa(i)}
			if c[8]&1 != 0 { // the rest are monitoring gaps
				row.Values[ids[i]] = math.Float64frombits(binary.BigEndian.Uint64(c))
				wantIdx = append(wantIdx, uint16(i))
				wantBits = append(wantBits, binary.BigEndian.Uint64(c))
			}
		}
		frame := encodeRowFrame(seq, row, ids)
		if err := decodeRowFrame(frame, &rf); err != nil {
			t.Fatalf("decode of an encoded row: %v", err)
		}
		if rf.Seq != seq || !rf.Time.Equal(row.Time) || len(rf.Idx) != len(wantIdx) {
			t.Fatalf("row header seq %d time %v with %d cells, want %d %v %d", rf.Seq, rf.Time, len(rf.Idx), seq, row.Time, len(wantIdx))
		}
		for i := range wantIdx {
			if rf.Idx[i] != wantIdx[i] || rf.Bits[i] != wantBits[i] {
				t.Fatalf("row cell %d: (%d, %x), want (%d, %x)", i, rf.Idx[i], rf.Bits[i], wantIdx[i], wantBits[i])
			}
		}
		if again := encodeRowFrame(seq, row, ids); !bytes.Equal(again, frame) {
			t.Fatal("two encodings of one row differ")
		}
	})
}
