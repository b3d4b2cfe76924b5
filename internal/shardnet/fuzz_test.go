package shardnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mcorr/internal/manager"
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
		// Hostile row payload, decoded into a row too narrow for most
		// indices: a frame is either refused or every cell of it landed
		// inside the row.
		var narrow [8]float64
		if _, _, err := decodeRowFrame(data, narrow[:]); err == nil {
			if (len(data)-20)%10 != 0 || int(binary.BigEndian.Uint32(data[16:])) != (len(data)-20)/10 {
				t.Fatalf("row frame of %d bytes decoded with count %d", len(data), binary.BigEndian.Uint32(data[16:]))
			}
			for cell := data[20:]; len(cell) > 0; cell = cell[10:] {
				if idx := binary.BigEndian.Uint16(cell); int(idx) >= len(narrow) {
					t.Fatalf("row frame addressing measurement %d decoded into a row of %d", idx, len(narrow))
				}
			}
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

		// Round trips. The first 16 bytes are the sequence and the row time;
		// every further 9 bytes one cell.
		var head [16]byte
		copy(head[:], data)
		seq, nanos := binary.BigEndian.Uint64(head[0:]), binary.BigEndian.Uint64(head[8:])
		var cells [][]byte // few enough for one outcome frame
		for rest := data[min(len(data), 16):]; len(rest) >= 9 && len(cells) < 64; rest = rest[9:] {
			cells = append(cells, rest[:9])
		}

		outs := make([]manager.Outcome, len(cells))
		for i, c := range cells {
			v := math.Float64frombits(binary.BigEndian.Uint64(c))
			outs[i] = manager.Outcome{Fitness: v, Prob: -v, Scored: c[8]&1 != 0, Gap: c[8]&2 != 0, Grown: c[8]&4 != 0, Steady: c[8]&8 != 0}
		}
		buf := appendOutcomeFrames(nil, seq, outs)
		of, err := decodeOutcomeFrame(buf)
		if err != nil {
			t.Fatalf("decode of an encoded outcome set: %v", err)
		}
		if of.Seq != seq || of.Total != len(outs) || of.Offset != 0 || of.Count != len(outs) {
			t.Fatalf("outcome header %+v, want seq %d and all %d outcomes", of, seq, len(outs))
		}
		for i, o := range outs {
			got := of.At(i)
			if math.Float64bits(got.Fitness) != math.Float64bits(o.Fitness) || math.Float64bits(got.Prob) != math.Float64bits(o.Prob) ||
				got.Scored != o.Scored || got.Gap != o.Gap || got.Grown != o.Grown || got.Steady != o.Steady {
				t.Fatalf("outcome %d: %+v, want %+v", i, got, o)
			}
		}

		// A row round-trips bit for bit, except that every NaN — whatever its
		// payload — and every absent measurement is the one gap.
		tm := time.Unix(0, int64(nanos)).UTC()
		vals := make([]float64, len(cells))
		for i, c := range cells {
			vals[i] = math.NaN() // the rest are monitoring gaps
			if c[8]&1 != 0 {
				vals[i] = math.Float64frombits(binary.BigEndian.Uint64(c))
			}
		}
		frame := encodeRowFrame(seq, tm, vals)
		got := make([]float64, len(vals))
		gotSeq, gotTime, err := decodeRowFrame(frame, got)
		if err != nil {
			t.Fatalf("decode of an encoded row: %v", err)
		}
		if gotSeq != seq || !gotTime.Equal(tm) {
			t.Fatalf("row header seq %d time %v, want %d %v", gotSeq, gotTime, seq, tm)
		}
		for i, v := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(v) && !(math.IsNaN(v) && math.IsNaN(got[i])) {
				t.Fatalf("row value %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(v))
			}
		}
		if again := encodeRowFrame(seq, tm, vals); !bytes.Equal(again, frame) {
			t.Fatal("two encodings of one row differ")
		}
	})
}

// TestShardFrameCorpusIsCurrent holds FuzzShardFrames' hand-laid seeds to
// the frame layouts of this build: the valid ones must decode and every
// other seed must be refused. A header change that left the valid seeds
// behind would leave the fuzzer nothing but refusals to mutate.
func TestShardFrameCorpusIsCurrent(t *testing.T) {
	valid := map[string]bool{"outcomes-valid": true, "outcomes-second-chunk": true, "outcomes-empty-shard": true, "row-valid": true}
	dir := filepath.Join("testdata", "fuzz", "FuzzShardFrames")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// One []byte value in the fuzzer's corpus encoding.
		lit, ok := strings.CutPrefix(string(b), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
		payload, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("seed %s is not one []byte in corpus encoding (%v)", name, err)
		}
		data := []byte(payload)
		switch {
		case strings.HasPrefix(name, "outcomes-"):
			_, err = decodeOutcomeFrame(data)
		case strings.HasPrefix(name, "row-"):
			_, _, err = decodeRowFrame(data, make([]float64, maxMeasurements))
		default:
			t.Errorf("seed %s names neither frame", name)
			continue
		}
		if valid[name] && err != nil {
			t.Errorf("valid seed %s is refused: %v", name, err)
		}
		if !valid[name] && err == nil {
			t.Errorf("seed %s decodes, but is named for a frame to refuse", name)
		}
		delete(valid, name)
	}
	for name := range valid {
		t.Errorf("valid seed %s is missing", name)
	}
}
