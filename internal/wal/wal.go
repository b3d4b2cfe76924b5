package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Framing constants.
const (
	// Magic opens every segment file. Its last byte is the format version:
	// version 2 frames records as version 1 did, but the tsdb sample
	// records inside name series by handle, and neither build reads the
	// other's.
	Magic = "MCORWAL2"
	// headerSize is the segment header: magic + uint64 first seq.
	headerSize = len(Magic) + 8
	// recordHeaderSize frames every record: length + crc + seq.
	recordHeaderSize = 4 + 4 + 8
	// MaxRecordSize bounds a record payload; larger lengths are treated as
	// corruption (and bound allocation when reading hostile input).
	MaxRecordSize = 1 << 24
	// segmentSuffix names segment files.
	segmentSuffix = ".wal"
)

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log errors.
var (
	ErrClosed  = errors.New("wal: log closed")
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrTooBig  = errors.New("wal: record exceeds size limit")
	// ErrFormat reports a segment that opens with another version of
	// Magic: a log written by another release, which this one cannot read.
	// It also wraps ErrCorrupt, but is never taken for a torn tail.
	ErrFormat = errors.New(`wal: segment written in another WAL format; see "Upgrading across a WAL format change" in OPERATIONS.md`)
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs at most once per batch window (group commit): an
	// append syncs only when the window since the last sync has elapsed.
	// Rotation and Close always sync. The default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append.
	SyncAlways
	// SyncNone never fsyncs explicitly (the OS page cache decides); data
	// still survives process crashes, only power loss can lose the tail.
	SyncNone
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag values "batch", "always", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, batch or none)", s)
	}
}

// Options tunes a Log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
}

// batchWindow is SyncBatch's group-commit window.
const batchWindow = 50 * time.Millisecond

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// segmentInfo is one on-disk segment.
type segmentInfo struct {
	path     string
	firstSeq uint64
}

// Log is a segmented append-only record log. All methods are safe for
// concurrent use.
type Log struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	segs     []segmentInfo // sorted by firstSeq; last is active
	f        *os.File      // active segment
	size     int64         // active segment size
	seq      uint64        // last assigned sequence number
	lastSync time.Time
	dirty    bool // unsynced bytes outstanding
	closed   bool
	frame    []byte // reused append scratch: the record being written
}

// Open opens (or creates) the log in dir. A torn record at the tail of the
// last segment — the signature of a crash mid-append — is truncated away
// and appending resumes after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segs: segs}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		obsSegments.Set(float64(len(l.segs)))
		return l, nil
	}
	// Scan the last segment to find its intact end; everything beyond is a
	// torn tail from a crash and is cut off.
	last := segs[len(segs)-1]
	lastSeq, validBytes, err := scanSegment(last.path)
	if err != nil {
		return nil, fmt.Errorf("wal open %s: %w", filepath.Base(last.path), err)
	}
	if lastSeq == 0 {
		// Header-only (or torn-header) segment: its first record was never
		// completed, so the last durable seq comes from the prior segment.
		lastSeq = last.firstSeq - 1
	}
	f, err := os.OpenFile(last.path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validBytes {
		if err := f.Truncate(validBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal open: %w", err)
	}
	l.f = f
	l.size = validBytes
	l.seq = lastSeq
	obsSegments.Set(float64(len(l.segs)))
	return l, nil
}

// listSegments returns the directory's segments sorted by first sequence.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // no log yet, or one removed on upgrade: nothing to read
	}
	if err != nil {
		return nil, fmt.Errorf("wal list: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// segmentPath names the segment starting at firstSeq.
func segmentPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", firstSeq, segmentSuffix))
}

// openSegment creates and activates a fresh segment whose first record
// will carry firstSeq. Caller holds the lock (or is the constructor).
func (l *Log) openSegment(firstSeq uint64) error {
	path := segmentPath(l.dir, firstSeq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:], Magic)
	binary.BigEndian.PutUint64(hdr[len(Magic):], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal segment header: %w", err)
	}
	l.f = f
	l.size = int64(headerSize)
	l.segs = append(l.segs, segmentInfo{path: path, firstSeq: firstSeq})
	obsSegments.Set(float64(len(l.segs)))
	return nil
}

// NextSegment returns the first sequence number of the segment the next
// Append writes into: the active segment's, or LastSeq()+1 when the active
// one is full and Append will rotate first. A writer that defines names
// once per segment (tsdb's sample records) compares it across its appends;
// the answer holds until the next Append only while that writer is the
// log's one appender.
func (l *Log) NextSegment() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.size >= l.opts.SegmentBytes {
		return l.seq + 1
	}
	return l.segs[len(l.segs)-1].firstSeq
}

// Append writes one record and returns its sequence number. Under
// SyncAlways the record is on stable storage when Append returns; under
// SyncBatch it is once the batch window elapses (or Sync/Close is called).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal append %d bytes: %w", len(payload), ErrTooBig)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := l.seq + 1
	if err := writeRecord(l.f, &l.frame, seq, payload); err != nil {
		return 0, fmt.Errorf("wal append: %w", err)
	}
	l.seq = seq
	l.size += int64(recordHeaderSize + len(payload))
	l.dirty = true
	obsAppended.Inc()
	obsBytes.Add(uint64(recordHeaderSize + len(payload)))
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncBatch:
		if time.Since(l.lastSync) >= batchWindow {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return seq, nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	return l.openSegment(l.seq + 1)
}

// syncLocked flushes the active segment to stable storage.
func (l *Log) syncLocked() error {
	if !l.dirty || l.opts.Sync == SyncNone {
		l.dirty = false
		return nil
	}
	start := time.Now()
	err := l.f.Sync()
	obsFsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Sync forces outstanding appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// LastSeq returns the sequence number of the last appended record (0 when
// the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// TruncateBefore removes whole segments whose records all have sequence
// numbers ≤ seq — the retention step after a checkpoint covers them. The
// active segment is never removed. Removal is best-effort: the first
// filesystem error is returned but the log stays usable.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var firstErr error
	kept := l.segs[:0]
	for i, s := range l.segs {
		// Segment i holds records [firstSeq, next.firstSeq-1]; it is
		// disposable iff the whole range is ≤ seq and it is not active.
		disposable := false
		if i+1 < len(l.segs) && l.segs[i+1].firstSeq-1 <= seq {
			disposable = true
		}
		if disposable {
			if err := os.Remove(s.path); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal truncate: %w", err)
				kept = append(kept, s)
				continue
			}
			obsTruncated.Inc()
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	obsSegments.Set(float64(len(l.segs)))
	return firstErr
}

// writeRecord frames payload as one [len][crc][seq][payload] record and
// hands it to w in a single Write — on the log's unbuffered segment file one
// write(2) a record, not one for the header and one for the payload. It is
// the writer twin of ReadRecord, shared by Log.Append and RecordWriter. The
// frame is assembled in *buf, caller-owned scratch that grows to the largest
// record written, so a stream of records allocates nothing.
func writeRecord(w io.Writer, buf *[]byte, seq uint64, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("record of %d bytes: %w", len(payload), ErrTooBig)
	}
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	crc := crc32.Update(crc32.Update(0, castagnoli, s[:]), castagnoli, payload)
	b := binary.BigEndian.AppendUint32((*buf)[:0], uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc)
	b = append(append(b, s[:]...), payload...)
	*buf = b
	_, err := w.Write(b)
	return err
}

// Close syncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
