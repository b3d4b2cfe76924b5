package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// testStream writes a blob, a float slab long enough to span several
// row-aligned records, and a plain record.
func testStream(t *testing.T, floats []float64, row int) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	if NewRecordWriter(rw) != rw {
		t.Fatal("NewRecordWriter did not adopt an existing RecordWriter")
	}
	if err := rw.WriteBlob([]byte("header")); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteFloats(floats, row); err != nil {
		t.Fatal(err)
	}
	if _, err := rw.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecordStreamRoundTrip(t *testing.T) {
	const row = 1000
	floats := make([]float64, 300*row) // 2.4 MB: three records
	for i := range floats {
		floats[i] = float64(i) * 0.1
	}
	floats[7] = math.Float64frombits(0x7ff8000000000bad) // a NaN payload survives
	stream := testStream(t, floats, row)

	rr := NewRecordReader(bytes.NewReader(stream))
	if blob, err := rr.ReadBlob(); err != nil || string(blob) != "header" {
		t.Fatalf("ReadBlob = %q, %v", blob, err)
	}
	got, err := rr.ReadFloats(len(floats))
	if err != nil {
		t.Fatalf("ReadFloats: %v", err)
	}
	for i := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Fatalf("float %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
		}
	}
	if rec, err := rr.Next(); err != nil || string(rec) != "tail" {
		t.Fatalf("last record = %q, %v", rec, err)
	}
	if _, err := rr.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next past the end = %v, want ErrCorrupt", err)
	}
	if _, err := rr.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("Read past the end = %v, want io.EOF", err)
	}

	// Float records hold whole rows and stay within ChunkSize.
	rr = NewRecordReader(bytes.NewReader(stream))
	if _, err := rr.ReadBlob(); err != nil {
		t.Fatal(err)
	}
	for left := len(floats); left > 0; {
		rec, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) > ChunkSize || len(rec)%(8*row) != 0 {
			t.Fatalf("float record of %d bytes: not whole %d-value rows within %d", len(rec), row, ChunkSize)
		}
		left -= len(rec) / 8
	}
}

// records splits a stream into its framed records.
func records(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(stream) > 0 {
		n := recordHeaderSize + int(uint32(stream[0])<<24|uint32(stream[1])<<16|uint32(stream[2])<<8|uint32(stream[3]))
		out = append(out, stream[:n])
		stream = stream[n:]
	}
	return out
}

func TestRecordStreamDetectsDamage(t *testing.T) {
	floats := make([]float64, 400_000) // four records
	recs := records(t, testStream(t, floats, 0))
	if len(recs) != 7 {
		t.Fatalf("%d records, want 7 (blob 2, floats 4, tail 1)", len(recs))
	}
	join := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	flipped := bytes.Clone(join(recs...))
	flipped[len(flipped)/2] ^= 1
	cases := map[string][]byte{
		"flipped bit":      flipped,
		"dropped record":   join(recs[0], recs[1], recs[2], recs[4], recs[5], recs[6]),
		"swapped records":  join(recs[0], recs[1], recs[3], recs[2], recs[4], recs[5], recs[6]),
		"repeated record":  join(recs[0], recs[1], recs[2], recs[2], recs[3], recs[4], recs[5], recs[6]),
		"truncated record": join(recs...)[:len(join(recs...))-len(recs[6])-100],
		"missing tail":     join(recs[:3]...),
	}
	for name, stream := range cases {
		rr := NewRecordReader(bytes.NewReader(stream))
		_, err := rr.ReadBlob()
		if err == nil {
			_, err = rr.ReadFloats(len(floats))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// A header may claim any size; what is allocated follows what arrives.
func TestRecordStreamHostileLengths(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	if _, err := rw.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil { // blob of 2^63-1 bytes
		t.Fatal(err)
	}
	if _, err := NewRecordReader(bytes.NewReader(buf.Bytes())).ReadBlob(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge blob: %v, want ErrCorrupt", err)
	}
	buf.Reset()
	if err := NewRecordWriter(&buf).WriteFloats(make([]float64, 10), 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := NewRecordReader(bytes.NewReader(buf.Bytes())).ReadFloats(1 << 40); !errors.Is(err, ErrCorrupt) {
			t.Errorf("2^40 floats from an 80-byte stream: %v, want ErrCorrupt", err)
		}
	})
	if allocs > 20 {
		t.Errorf("%v allocations for a hostile length", allocs)
	}
	var frame []byte
	big := bytes.NewBuffer(nil)
	if err := writeRecord(big, &frame, 1, make([]byte, ChunkSize+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecordReader(big).Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("record above ChunkSize: %v, want ErrCorrupt", err)
	}
}
