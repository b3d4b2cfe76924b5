package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ChunkSize bounds the payload of every record in a record stream: larger
// values (a model's weight matrix, a long series) go out as consecutive
// records of at most this size, so neither end ever holds more than one
// chunk beside the value itself.
const ChunkSize = 1 << 20

// RecordWriter writes a record stream: the log's [len][crc][seq][payload]
// frames back to back on any io.Writer, numbered from 1 so a dropped,
// repeated or reordered record is detected on read. It is the checkpoint
// and state-transfer encoder shared by every layer: tsdb, core, manager and
// the checkpoint file all write through one RecordWriter per stream.
//
// RecordWriter does no buffering of its own — hand it a bufio.Writer when
// the destination is a file or a socket.
type RecordWriter struct {
	w     io.Writer
	seq   uint64
	frame []byte // the record being written, at most a header beyond ChunkSize
	buf   []byte // WriteFloats encode scratch, at most ChunkSize
}

// NewRecordWriter returns a record stream over w. Like bufio.NewWriter, it
// returns w itself when w already is a *RecordWriter — that is how a
// nested Save(io.Writer) (a model inside a manager inside a checkpoint
// file) continues its caller's stream and sequence instead of starting one.
func NewRecordWriter(w io.Writer) *RecordWriter {
	if rw, ok := w.(*RecordWriter); ok {
		return rw
	}
	return &RecordWriter{w: w}
}

// Write appends p as consecutive records of at most ChunkSize bytes each
// (nothing for an empty p). It never returns a short count without an
// error.
func (rw *RecordWriter) Write(p []byte) (int, error) {
	for off := 0; off < len(p); {
		n := min(len(p)-off, ChunkSize)
		rw.seq++
		if err := writeRecord(rw.w, &rw.frame, rw.seq, p[off:off+n]); err != nil {
			return off, fmt.Errorf("record %d: %w", rw.seq, err)
		}
		off += n
	}
	return len(p), nil
}

// WriteBlob appends a length-prefixed byte string — a small header or an
// opaque state blob — that ReadBlob returns whole.
func (rw *RecordWriter) WriteBlob(p []byte) error {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
	if _, err := rw.Write(n[:]); err != nil {
		return err
	}
	_, err := rw.Write(p)
	return err
}

// WriteFloats appends v as raw little-endian math.Float64bits — bit-exact
// by construction — in records of at most ChunkSize bytes, each a whole
// number of row-length rows when a row fits (row ≤ 0: no alignment). The
// reader must know len(v) from a header written before.
func (rw *RecordWriter) WriteFloats(v []float64, row int) error {
	per := ChunkSize / 8
	if row > 0 && row <= per {
		per -= per % row
	}
	for len(v) > 0 {
		n := min(len(v), per)
		if cap(rw.buf) < 8*n {
			rw.buf = make([]byte, min(ChunkSize, max(8*n, 2*cap(rw.buf))))
		}
		b := rw.buf[:8*n]
		for i, f := range v[:n] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
		}
		if _, err := rw.Write(b); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

// RecordReader reads a stream written by RecordWriter, verifying every
// record's CRC and that sequence numbers run 1, 2, 3, …. One scratch
// buffer is reused for every record, so at most one record (≤ ChunkSize)
// is resident beside the values being decoded. Every failure — a damaged
// frame, a gap in the sequence, a stream that ends while a record is
// expected — wraps ErrCorrupt.
type RecordReader struct {
	r    io.Reader
	seq  uint64
	buf  []byte // record scratch
	rest []byte // unread tail of the current record, for Read
}

// NewRecordReader returns a record stream over r, or r itself when it
// already is a *RecordReader (see NewRecordWriter).
func NewRecordReader(r io.Reader) *RecordReader {
	if rr, ok := r.(*RecordReader); ok {
		return rr
	}
	return &RecordReader{r: r}
}

// Next returns the next record's payload, valid until the next call on the
// reader. Streams are self-delimiting — a decoder only asks for a record
// its header declared — so running out of input is corruption, not EOF.
func (rr *RecordReader) Next() ([]byte, error) {
	b, err := rr.next()
	if err == io.EOF {
		err = fmt.Errorf("stream ends before record %d: %w", rr.seq+1, ErrCorrupt)
	}
	return b, err
}

// next is Next with a clean end of input reported as io.EOF.
func (rr *RecordReader) next() ([]byte, error) {
	rr.rest = nil
	rec, err := readRecordInto(rr.r, rr.buf, ChunkSize)
	if err != nil {
		return nil, err
	}
	if rec.Seq != rr.seq+1 {
		return nil, fmt.Errorf("record %d where %d was due: %w", rec.Seq, rr.seq+1, ErrCorrupt)
	}
	rr.seq++
	rr.buf = rec.Data
	return rec.Data, nil
}

// Read delivers the payload bytes of consecutive records — the inverse of
// Write — and io.EOF when the input ends on a record boundary. ReadBlob
// bounds it to one blob with an io.LimitReader.
func (rr *RecordReader) Read(p []byte) (int, error) {
	for len(rr.rest) == 0 {
		rec, err := rr.next()
		if err != nil {
			return 0, err
		}
		rr.rest = rec
	}
	n := copy(p, rr.rest)
	rr.rest = rr.rest[n:]
	return n, nil
}

// ReadBlob returns a byte string written by WriteBlob. The declared length
// is not trusted with an allocation: the result grows as records arrive.
func (rr *RecordReader) ReadBlob() ([]byte, error) {
	hdr, err := rr.Next()
	if err != nil {
		return nil, err
	}
	if len(hdr) != 8 {
		return nil, fmt.Errorf("blob length record of %d bytes: %w", len(hdr), ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(hdr)
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("blob of %d bytes: %w", n, ErrCorrupt)
	}
	p, err := io.ReadAll(io.LimitReader(rr, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(len(p)) != n || len(rr.rest) != 0 {
		return nil, fmt.Errorf("blob of %d bytes does not end on a record: %w", n, ErrCorrupt)
	}
	return p, nil
}

// eagerFloats is the largest float slab ReadFloats allocates on a header's
// word alone; a longer one doubles up to its declared size as records
// arrive, so a hostile header costs at most 8 MiB.
const eagerFloats = 1 << 20

// ReadFloats decodes total values written by WriteFloats straight into the
// returned slice.
func (rr *RecordReader) ReadFloats(total int) ([]float64, error) {
	if total < 0 {
		return nil, fmt.Errorf("%d floats: %w", total, ErrCorrupt)
	}
	dst := make([]float64, 0, min(total, eagerFloats))
	for len(dst) < total {
		b, err := rr.Next()
		if err != nil {
			return nil, err
		}
		n := len(b) / 8
		if n == 0 || len(b)%8 != 0 || n > total-len(dst) {
			return nil, fmt.Errorf("%d-byte float record with %d of %d values due: %w", len(b), total-len(dst), total, ErrCorrupt)
		}
		if cap(dst)-len(dst) < n {
			grown := make([]float64, len(dst), min(total, max(2*cap(dst), len(dst)+n)))
			copy(grown, dst)
			dst = grown
		}
		at := len(dst)
		dst = dst[:at+n]
		for i := range dst[at:] {
			dst[at+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return dst, nil
}
