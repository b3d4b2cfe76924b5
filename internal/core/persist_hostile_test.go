package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mcorr/internal/mathx"
	"mcorr/internal/wal"
)

// modelParts is a saved model taken apart record by record, so a test can
// change one field and put it back together with valid CRCs: then only
// loadModel's own checks stand between a lying record and a live model.
type modelParts struct {
	hdr    modelHeader
	x, y   []float64
	index  []uint32 // nx0, ny0, growths, 4 words a growth, stored row indices
	stored [][]float64
}

// grownModelParts saves a small adaptive model that has grown on two sides
// and stored a few rows, and splits the stream.
func grownModelParts(tb testing.TB) modelParts {
	tb.Helper()
	m, err := Train(corrStream(rand.New(rand.NewSource(61)), 300), Config{Adaptive: true, Grid: GridConfig{MaxIntervals: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	g := m.Grid()
	for _, p := range []mathx.Point2{
		{X: g.X.Hi() + 0.5*g.X.AvgWidth, Y: g.Y.Hi() - 0.5*g.Y.AvgWidth},
		{X: g.X.Lo() + 0.5*g.X.AvgWidth, Y: g.Y.Lo() - 1.5*g.Y.AvgWidth},
		{X: g.X.Lo() + 0.5*g.X.AvgWidth, Y: g.Y.Lo() + 0.5*g.Y.AvgWidth},
	} {
		m.Step(p)
	}
	if m.Stats().Growths != 2 {
		tb.Fatalf("fixture grew %d times, want 2", m.Stats().Growths)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	rr := wal.NewRecordReader(&buf)
	var p modelParts
	rec, err := rr.Next()
	if err == nil {
		err = binary.Read(bytes.NewReader(rec), binary.LittleEndian, &p.hdr)
	}
	if err == nil {
		p.x, err = rr.ReadFloats(int(p.hdr.NX) + 1)
	}
	if err == nil {
		p.y, err = rr.ReadFloats(int(p.hdr.NY) + 1)
	}
	var index []byte
	if err == nil {
		index, err = rr.ReadBlob()
	}
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < len(index); k += 4 {
		p.index = append(p.index, binary.LittleEndian.Uint32(index[k:]))
	}
	for range p.index[3+4*p.index[2]:] {
		row, err := rr.ReadFloats(int(p.hdr.NX * p.hdr.NY))
		if err != nil {
			tb.Fatal(err)
		}
		p.stored = append(p.stored, row)
	}
	if len(p.stored) < 3 || buf.Len() != 0 {
		tb.Fatalf("fixture stores %d rows and leaves %d bytes unread", len(p.stored), buf.Len())
	}
	return p
}

// encode is Save's record sequence over the parts as they stand.
func (p modelParts) encode() []byte {
	var buf bytes.Buffer
	rw := wal.NewRecordWriter(&buf)
	binary.Write(rw, binary.LittleEndian, &p.hdr)
	rw.WriteFloats(p.x, 0)
	rw.WriteFloats(p.y, 0)
	var index []byte
	for _, w := range p.index {
		index = binary.LittleEndian.AppendUint32(index, w)
	}
	rw.WriteBlob(index)
	for _, row := range p.stored {
		rw.WriteFloats(row, 0)
	}
	return buf.Bytes()
}

// hostileModel is a CRC-valid model stream that contradicts itself.
type hostileModel struct {
	lie  string
	data []byte
}

func hostileModels(tb testing.TB) []hostileModel {
	base := grownModelParts(tb)
	rows := 3 + 4*int(base.index[2]) // where the stored row indices start
	n := base.hdr.NX * base.hdr.NY
	var out []hostileModel
	lie := func(name string, edit func(p *modelParts)) {
		p := base
		p.x, p.y, p.index = slices.Clone(base.x), slices.Clone(base.y), slices.Clone(base.index)
		edit(&p)
		out = append(out, hostileModel{name, p.encode()})
	}
	lie("row indices descend", func(p *modelParts) { p.index[rows], p.index[rows+1] = p.index[rows+1], p.index[rows] })
	lie("row index repeats", func(p *modelParts) { p.index[rows+1] = p.index[rows] })
	lie("row index past the matrix", func(p *modelParts) { p.index[len(p.index)-1] = n })
	lie("more rows than cells", func(p *modelParts) {
		p.index = p.index[:rows]
		for i := uint32(0); i <= n; i++ {
			p.index = append(p.index, i)
		}
	})
	lie("row indexed but not sent", func(p *modelParts) { p.stored = p.stored[:len(p.stored)-1] })
	lie("growths overshoot the dims", func(p *modelParts) { p.index[0]++ })
	lie("growths fall short of the dims", func(p *modelParts) { p.index[1]-- })
	lie("a growth too many", func(p *modelParts) {
		p.index[2]++
		p.index = append(p.index[:rows:rows], append([]uint32{0, 0, 0, 1}, p.index[rows:]...)...)
	})
	lie("growth that adds nothing", func(p *modelParts) {
		p.index[2]++
		p.index = append(p.index[:rows:rows], append([]uint32{0, 0, 0, 0}, p.index[rows:]...)...)
	})
	lie("more growths than the axes have intervals", func(p *modelParts) { p.index[2] = 1 << 20 })
	lie("index cut short", func(p *modelParts) { p.index = p.index[:2] })
	lie("chain position past the matrix", func(p *modelParts) { p.hdr.Prev = int64(n) })
	lie("armed without a position", func(p *modelParts) { p.hdr.Armed, p.hdr.Prev = true, -1 })
	lie("frozen run in a cell that does not exist", func(p *modelParts) { p.hdr.RunCell = -2 })
	lie("negative run length", func(p *modelParts) { p.hdr.RunLen = -1 })
	lie("negative observed count", func(p *modelParts) { p.hdr.Observed = -5 })
	lie("negative stats", func(p *modelParts) { p.hdr.Stats[3] = -1 })
	lie("NaN edge", func(p *modelParts) { p.x[1] = math.NaN() })
	lie("infinite edge", func(p *modelParts) { p.y[len(p.y)-1] = math.Inf(1) })
	lie("edges out of order", func(p *modelParts) { p.y[0], p.y[1] = p.y[1], p.y[0] })
	lie("zero-width interval", func(p *modelParts) { p.x[2] = p.x[1] })
	lie("zero average width", func(p *modelParts) { p.hdr.XAvgWidth = 0 })
	lie("NaN lambda", func(p *modelParts) { p.hdr.Lambda = math.NaN() })
	lie("unknown update rule", func(p *modelParts) { p.hdr.UpdateRule = 9 })
	lie("NaN kernel decay", func(p *modelParts) { p.hdr.DecayW = math.NaN() })
	lie("previous record format", func(p *modelParts) { p.hdr.Version = 3 })
	// A row entry no update can leave: clone the stored rows before the edit.
	row := func(edit func(rows [][]float64)) func(p *modelParts) {
		return func(p *modelParts) {
			p.stored = make([][]float64, len(base.stored))
			for k, r := range base.stored {
				p.stored[k] = slices.Clone(r)
			}
			edit(p.stored)
		}
	}
	lie("NaN row entry", row(func(rows [][]float64) { rows[1][2] = math.NaN() }))
	lie("+Inf row entry", row(func(rows [][]float64) { rows[0][0] = math.Inf(1) }))
	lie("-Inf row entry", row(func(rows [][]float64) { rows[len(rows)-1][int(n)-1] = math.Inf(-1) }))
	lie("negative Dirichlet count", func(p *modelParts) {
		dirichletParts(p)
		p.stored[1][3] = -0.5
	})
	lie("huge grid without a stored row", func(p *modelParts) {
		// 300×300 cells from 602 edges: nothing has arrived that would
		// pay for the tables such a matrix needs.
		p.hdr.NX, p.hdr.NY = 300, 300
		p.hdr.Prev, p.hdr.RunCell = 0, 0
		p.x, p.y = mathx.Linspace(0, 1, 301), mathx.Linspace(0, 1, 301)
		p.index, p.stored = []uint32{300, 300, 0}, nil
	})
	return out
}

// dirichletParts turns the parts into a Dirichlet model's: the header's rule
// and, in place of the log weights, counts (their magnitudes) in fresh rows.
func dirichletParts(p *modelParts) {
	p.hdr.UpdateRule = int64(UpdateDirichlet)
	rows := make([][]float64, len(p.stored))
	for k, r := range p.stored {
		rows[k] = make([]float64, len(r))
		for j, v := range r {
			rows[k][j] = math.Abs(v)
		}
	}
	p.stored = rows
}

// TestLoadModelRejectsContradictions: every stream of hostileModels fails
// with wal.ErrCorrupt, and the untouched parts load, as kernel-Bayes log
// weights and as Dirichlet counts.
func TestLoadModelRejectsContradictions(t *testing.T) {
	parts := grownModelParts(t)
	if _, err := LoadModel(bytes.NewReader(parts.encode())); err != nil {
		t.Fatalf("re-encoded fixture: %v", err)
	}
	dirichletParts(&parts)
	if _, err := LoadModel(bytes.NewReader(parts.encode())); err != nil {
		t.Fatalf("the fixture's counts as a Dirichlet model: %v", err)
	}
	for _, h := range hostileModels(t) {
		m, err := LoadModel(bytes.NewReader(h.data))
		if m != nil || !errors.Is(err, wal.ErrCorrupt) {
			t.Errorf("%s: model %v, error %v; want wal.ErrCorrupt", h.lie, m != nil, err)
		}
	}
}

// TestLoadModelCannotSizeTheSharedKernel: the widest grid a record may claim
// without sending a single row — maxAxis × 2, exactly maxUnobservedCells —
// loads, but its kernel table is its own: nothing is published for it and no
// published table grows. A header one interval wider is refused before any
// kernel is built.
func TestLoadModelCannotSizeTheSharedKernel(t *testing.T) {
	const w = 2.75 // no other test's decay
	wide := grownModelParts(t)
	wide.hdr.NX, wide.hdr.NY, wide.hdr.DecayW = maxAxis, 2, w
	wide.hdr.Prev, wide.hdr.RunCell = 0, 0
	wide.x = make([]float64, maxAxis+1)
	for i := range wide.x {
		wide.x[i] = float64(i)
	}
	wide.y = []float64{0, 1, 2}
	wide.index, wide.stored = []uint32{maxAxis, 2, 0}, nil
	published.Lock()
	before := len(published.kernels)
	published.Unlock()

	m, err := LoadModel(bytes.NewReader(wide.encode()))
	if err != nil {
		t.Fatalf("a %dx2 model with no stored row: %v", maxAxis, err)
	}
	if k := m.Matrix().kernel; k.nx != maxAxis || k.ny != 2 {
		t.Errorf("the model's kernel covers %dx%d, want its own %dx2 table", k.nx, k.ny, maxAxis)
	}
	wide.hdr.NX++
	wide.x = append(wide.x, maxAxis+1)
	if m, err := LoadModel(bytes.NewReader(wide.encode())); m != nil || !errors.Is(err, wal.ErrCorrupt) {
		t.Errorf("a %dx2 header: model %v, error %v; want wal.ErrCorrupt", maxAxis+1, m != nil, err)
	}
	published.Lock()
	after := len(published.kernels)
	published.Unlock()
	if publishedKernel(KernelKind(wide.hdr.Kernel), w) != nil || after != before {
		t.Errorf("%d kernels published before the loads, %d after", before, after)
	}
}

// FuzzLoadModel throws arbitrary bytes at LoadModel. It must never panic,
// must not allocate more than a fixed slack (one record buffer, one eager
// float slab, the tables of a grid small enough to come free) plus a small
// multiple of what the input holds, and must fail with wal.ErrCorrupt or
// hand back a model that works: one that steps inside its grid and just
// beyond it, explains itself and saves.
func FuzzLoadModel(f *testing.F) {
	f.Add(grownModelParts(f).encode())
	for _, h := range hostileModels(f) {
		f.Add(h.data)
	}
	dirichlet, err := Train(corrStream(rand.New(rand.NewSource(62)), 200), Config{UpdateRule: UpdateDirichlet, Kernel: KernelProduct})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dirichlet.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadModel(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+32*len(data)); got > limit {
			t.Fatalf("LoadModel allocated %d bytes on a %d-byte input; limit %d", got, len(data), limit)
		}
		if err != nil {
			if m != nil || !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("model %v, error %v; want wal.ErrCorrupt alone", m != nil, err)
			}
			return
		}
		g := m.Grid()
		inside := mathx.Point2{X: g.X.Lo() + (g.X.Hi()-g.X.Lo())/2, Y: g.Y.Lo() + (g.Y.Hi()-g.Y.Lo())/2}
		beyond := mathx.Point2{X: g.X.Hi() + g.X.AvgWidth/2, Y: inside.Y}
		for _, p := range []mathx.Point2{inside, inside, beyond, inside} {
			m.Step(p)
			m.Explain(p, 3)
		}
		if err := m.Save(io.Discard); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
	})
}
