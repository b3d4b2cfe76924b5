package wal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNextSegmentNamesWhereAppendWrites: NextSegment is the first sequence
// number of the segment the next record lands in, before and after a
// rotation, and after a reopen resumes the last segment.
func TestNextSegmentNamesWhereAppendWrites(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 64})
	payload := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 6; i++ {
		want := l.NextSegment()
		seq := appendT(t, l, string(payload))
		start, err := SegmentStart(dir, seq)
		if err != nil || start != want {
			t.Fatalf("record %d landed in the segment starting at %d (%v), NextSegment said %d", seq, start, err, want)
		}
	}
	l.Close()
	l2 := openT(t, dir, Options{SegmentBytes: 1 << 20})
	want := segmentStartT(t, dir, l2.LastSeq()+1) // the last segment, resumed
	if got := l2.NextSegment(); got != want {
		t.Fatalf("reopened NextSegment = %d, want the resumed segment's %d", got, want)
	}
	if seq := appendT(t, l2, "resumed"); segmentStartT(t, dir, seq) != want {
		t.Fatalf("record %d did not land in the resumed segment %d", seq, want)
	}
}

func segmentStartT(t *testing.T, dir string, seq uint64) uint64 {
	t.Helper()
	start, err := SegmentStart(dir, seq)
	if err != nil {
		t.Fatal(err)
	}
	return start
}

// TestSegmentStart: the segment that holds a sequence number, seq itself
// before any segment, and nothing to read in a directory that is gone.
func TestSegmentStart(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 5; i++ {
		appendT(t, l, strings.Repeat("y", 60)) // one record a segment
	}
	l.TruncateBefore(2) // drops segment 1
	for seq, want := range map[uint64]uint64{1: 1, 2: 2, 3: 3, 5: 5, 9: 5} {
		if got := segmentStartT(t, dir, seq); got != want {
			t.Errorf("SegmentStart(%d) = %d, want %d", seq, got, want)
		}
	}
	gone := filepath.Join(t.TempDir(), "wal")
	if got, err := SegmentStart(gone, 7); err != nil || got != 7 {
		t.Errorf("SegmentStart(missing dir) = %d, %v; want 7, nil", got, err)
	}
	if n, err := Replay(gone, 0, func(Record) error { return nil }); err != nil || n != 0 {
		t.Errorf("Replay(missing dir) = %d, %v; want 0, nil", n, err)
	}
}

// TestOldFormatSegmentIsRefused: a segment of another format version is
// never taken for a torn tail — not even as the last segment — and the
// error says where the upgrade note is.
func TestOldFormatSegmentIsRefused(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	appendT(t, l, "record")
	l.Close()
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, Magic[:len(Magic)-1]+"1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rerr := Replay(dir, 0, func(Record) error { return nil })
	_, oerr := Open(dir, Options{})
	for what, err := range map[string]error{"Replay": rerr, "Open": oerr} {
		if !errors.Is(err, ErrFormat) || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "OPERATIONS.md") {
			t.Errorf("%s of an old segment = %v; want ErrFormat (and ErrCorrupt) naming OPERATIONS.md", what, err)
		}
	}
}

// TestWALCorpusIsCurrent keeps the checked-in seeds of FuzzReadSegment and
// FuzzReadRecord alive: a seed that opens with a segment magic opens with
// the current one — a Magic bump that forgets `make corpus` would leave the
// segment seeds refused in their first 8 bytes — and every generated seed
// still means what its name says.
func TestWALCorpusIsCurrent(t *testing.T) {
	anyVersion := []byte(Magic[:len(Magic)-1])
	for _, target := range []string{"FuzzReadSegment", "FuzzReadRecord"} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("%s: no seeds (%v)", dir, err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
			quoted, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
			quoted, ok2 := strings.CutSuffix(quoted, ")")
			data, err := strconv.Unquote(quoted)
			if len(lines) != 2 || !ok || !ok2 || err != nil {
				t.Fatalf("%s/%s is not a one-[]byte seed file (%v)", target, e.Name(), err)
			}
			seed := []byte(data)
			if bytes.HasPrefix(seed, anyVersion) && !bytes.HasPrefix(seed, []byte(Magic)) {
				t.Errorf("%s/%s opens with %q, not %q: regenerate the corpus with `make corpus`", target, e.Name(), seed[:len(Magic)], Magic)
				continue
			}
			if !strings.HasPrefix(e.Name(), "seed_") {
				continue // a crasher the fuzzer filed; the fuzz target replays it
			}
			var records int
			if target == "FuzzReadSegment" {
				err = ReadSegment(bytes.NewReader(seed), func(Record) error { records++; return nil })
			} else {
				r := bytes.NewReader(seed)
				for err == nil {
					if _, err = ReadRecord(r); err == nil {
						records++
					}
				}
				if err == io.EOF {
					err = nil
				}
			}
			clean := strings.HasPrefix(e.Name(), "seed_valid_") || e.Name() == "seed_header_only"
			switch {
			case clean && (err != nil || (records == 0) != (e.Name() == "seed_header_only")):
				t.Errorf("%s/%s: %d records, %v; want a clean read", target, e.Name(), records, err)
			case !clean && !errors.Is(err, ErrCorrupt):
				t.Errorf("%s/%s: %d records, %v; want ErrCorrupt", target, e.Name(), records, err)
			}
		}
	}
}
