package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record is one replayed log entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// ReadSegmentHeader consumes and validates a segment header, returning the
// segment's first sequence number.
func ReadSegmentHeader(r io.Reader) (uint64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("segment header: %w", ErrCorrupt)
	}
	if magic := string(hdr[:len(Magic)]); magic != Magic {
		if magic[:len(Magic)-1] == Magic[:len(Magic)-1] {
			return 0, fmt.Errorf("segment magic %q, want %q: %w (%w)", magic, Magic, ErrFormat, ErrCorrupt)
		}
		return 0, fmt.Errorf("segment magic: %w", ErrCorrupt)
	}
	return binary.BigEndian.Uint64(hdr[len(Magic):]), nil
}

// ReadRecord reads one CRC-framed record from r. It returns io.EOF at a
// clean record boundary and ErrCorrupt (possibly wrapped) for a torn or
// damaged frame; it never panics and never allocates more than
// MaxRecordSize for hostile input.
func ReadRecord(r io.Reader) (Record, error) { return readRecordInto(r, nil, MaxRecordSize) }

// readRecordInto is ReadRecord decoding into a caller-owned buffer: the
// returned Data aliases buf (regrown only when the payload exceeds its
// capacity) and is valid until the buffer's next use, so a reader that
// hands each record's Data back as the next buf holds one record at a
// time. Payloads longer than max are corruption.
func readRecordInto(r io.Reader, buf []byte, max int) (Record, error) {
	var hdr [recordHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF // clean boundary
		}
		return Record{}, fmt.Errorf("record header: %v: %w", err, ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(hdr[0:4]))
	if n > max {
		return Record{}, fmt.Errorf("record of %d bytes: %w", n, ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(hdr[4:8])
	seq := binary.BigEndian.Uint64(hdr[8:16])
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Record{}, fmt.Errorf("record payload: %v: %w", err, ErrCorrupt)
	}
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return Record{}, fmt.Errorf("record crc: %w", ErrCorrupt)
	}
	return Record{Seq: seq, Data: payload}, nil
}

// ReadSegment replays every intact record of one segment stream into fn,
// header included. It stops without error at a clean end and returns
// ErrCorrupt (wrapped) at the first damaged frame; records before the
// damage are still delivered. fn errors abort the scan.
func ReadSegment(r io.Reader, fn func(Record) error) error {
	if _, err := ReadSegmentHeader(r); err != nil {
		return err
	}
	for {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
}

// scanSegment reads a segment file and returns the sequence number of its
// last intact record (0 if none) and the byte offset where intact data
// ends — the resume point for appends. A torn tail is not an error; a
// missing or damaged header is.
func scanSegment(path string) (lastSeq uint64, validBytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if _, err := ReadSegmentHeader(br); err != nil {
		return 0, 0, err
	}
	validBytes = int64(headerSize)
	for {
		rec, err := ReadRecord(br)
		if err != nil {
			// Clean EOF and a torn/corrupt tail both end the scan; the
			// caller truncates to validBytes either way.
			return lastSeq, validBytes, nil
		}
		lastSeq = rec.Seq
		validBytes += int64(recordHeaderSize + len(rec.Data))
	}
}

// SegmentStart returns the first sequence number of the segment of dir that
// holds record seq — where a reader starts when records before seq carry
// state (tsdb's handle definitions) that records from seq on depend on.
// It returns seq itself when no segment starts at or before seq.
func SegmentStart(dir string, seq uint64) (uint64, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	start := seq
	for _, s := range segs {
		if s.firstSeq > seq {
			break
		}
		start = s.firstSeq
	}
	return start, nil
}

// Replay streams every record with Seq > after through fn, in sequence
// order across all segments of dir. Corruption in the final segment is
// treated as the torn tail of a crash and ends the replay cleanly;
// corruption in an earlier segment is a real error, and so is a segment in
// another format (ErrFormat), wherever it lies. A directory that does not
// exist holds no records. It returns the number of records delivered.
func Replay(dir string, after uint64, fn func(Record) error) (int, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return 0, err
	}
	delivered := 0
	for i, s := range segs {
		// Skip segments wholly covered by `after`.
		if i+1 < len(segs) && segs[i+1].firstSeq-1 <= after {
			continue
		}
		f, err := os.Open(s.path)
		if err != nil {
			return delivered, fmt.Errorf("wal replay: %w", err)
		}
		err = ReadSegment(bufio.NewReader(f), func(rec Record) error {
			if rec.Seq <= after {
				return nil
			}
			if err := fn(rec); err != nil {
				return err
			}
			delivered++
			return nil
		})
		f.Close()
		if err != nil {
			if errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) && i == len(segs)-1 {
				return delivered, nil // torn tail of the active segment
			}
			return delivered, fmt.Errorf("wal replay %s: %w", filepath.Base(s.path), err)
		}
	}
	return delivered, nil
}
