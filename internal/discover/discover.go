package discover

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"mcorr/internal/manager"
	"mcorr/internal/mathx"
	"mcorr/internal/timeseries"
)

// Config tunes the discovery policy. The zero value takes the documented
// defaults.
type Config struct {
	// Budget is the global cap on admitted pairs. 0 means unlimited
	// (every candidate may be admitted — the paper's full graph).
	Budget int
	// TopK is the per-anchor admission preference: a candidate is
	// admitted only while at least one of its two series has fewer than
	// TopK admitted partners. Default 8.
	TopK int
	// Decay is the sketches' per-sample forgetting factor γ. Default
	// 0.97 (effective window ≈ 33 samples).
	Decay float64
	// Lags is the sketch lag-window half-width L. Default 4.
	Lags int
	// ProbeBatch is how many non-admitted candidates carry a live probe
	// sketch per round. Default 64.
	ProbeBatch int
	// RoundRows is the round length in rows; admission and eviction
	// decisions happen only at round boundaries. Default 120.
	RoundRows int
	// AdmitAbove is the |r| floor a probed candidate must reach to be
	// admitted. Default 0.30 (any value ≤ 0); New refuses a NaN, an
	// infinity or a value above 1.
	AdmitAbove float64
	// EvictBelow is the |r| ceiling under which an admitted pair counts
	// as flat-lined. Default 0.15 (any value ≤ 0); New refuses a NaN, an
	// infinity or a value above 1.
	EvictBelow float64
	// EvictAfter is how many consecutive flat-lined rounds trigger
	// eviction. Default 2.
	EvictAfter int
	// MinEffSamples is the decayed effective-sample floor below which a
	// sketch's estimate is not trusted for admission or eviction.
	// Default 12 (well under the γ=0.97 plateau of ≈33).
	MinEffSamples float64
	// TrainWindow is how many recent raw rows the discoverer retains per
	// series, used to train a transition model when a pair is admitted.
	// Default 288 (one simulated day at 5-minute steps).
	TrainWindow int
	// MinTrain is the minimum jointly-valid points TrainingPoints needs
	// before an admission is worth training. Default 24.
	MinTrain int
}

// validate refuses a correlation threshold no |r| can be compared with
// meaningfully: a NaN or an infinity, against which every comparison of
// the admission and eviction tests is false or always true, or a value
// above 1, which no |r| reaches. 0 and negative values select the default.
func (c Config) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"AdmitAbove", c.AdmitAbove}, {"EvictBelow", c.EvictBelow}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v > 1 {
			return fmt.Errorf("discover: %s = %v: want a finite |r| threshold of at most 1 (0 or less for the default)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 8
	}
	if !(c.Decay > 0 && c.Decay <= 1) {
		c.Decay = 0.97
	}
	if c.Lags < 0 {
		c.Lags = 0
	} else if c.Lags == 0 {
		c.Lags = 4
	}
	if c.ProbeBatch <= 0 {
		c.ProbeBatch = 64
	}
	if c.RoundRows <= 0 {
		c.RoundRows = 120
	}
	if c.AdmitAbove <= 0 {
		c.AdmitAbove = 0.30
	}
	if c.EvictBelow <= 0 {
		c.EvictBelow = 0.15
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 2
	}
	if c.MinEffSamples <= 0 {
		c.MinEffSamples = 12
	}
	if c.TrainWindow <= 0 {
		c.TrainWindow = 288
	}
	if c.MinTrain <= 0 {
		c.MinTrain = 24
	}
	if c.Budget < 0 {
		c.Budget = 0
	}
	return c
}

// Changes reports what one round boundary decided. Admit and Evict are in
// canonical pair order; both empty (and Round 0) when the row did not end
// a round or the round changed nothing.
type Changes struct {
	// Round is the 1-based round that just ended, 0 when no round ended.
	Round uint64
	// Admit lists pairs newly admitted to the graph.
	Admit []manager.Pair
	// Evict lists pairs whose models should be dropped.
	Evict []manager.Pair
}

// Empty reports whether the changes carry no admissions or evictions.
func (c Changes) Empty() bool { return len(c.Admit) == 0 && len(c.Evict) == 0 }

// entry is one admitted candidate with its live sketch.
type entry struct {
	c         int
	sk        *Sketch
	lowRounds int
	score     float64 // last round's best-lag r (bootstrap r before that)
	lag       int
}

// probeEntry is one non-admitted candidate under temporary observation.
type probeEntry struct {
	c  int
	sk *Sketch
}

// Discoverer runs the admission/eviction policy over every pair candidate
// of a fixed fleet. It is not safe for concurrent use; callers serialize
// Observe with the manager step (the monitor loop already does).
type Discoverer struct {
	cfg Config

	ids      []timeseries.MeasurementID // sorted ascending
	idIdx    map[timeseries.MeasurementID]int
	col      []int // col[i] = position of ids[i] in the list New was given: its column in a dense row
	rowStart []int // rowStart[i] = first candidate index with A==ids[i]
	numCand  int

	admitted []*entry // sorted by c
	deg      []int    // admitted partner count per series index

	probe       []probeEntry
	probeCursor int // next candidate index to probe, wraps

	rowsInRound int
	round       uint64

	// hist holds the last TrainWindow raw values per series (NaN for
	// gaps), shared head/len — the training corpus for new admissions;
	// the newest slot, histHead, is what the sketches read.
	hist     [][]float64
	histHead int
	histLen  int
}

// New builds a Discoverer over the given fleet of measurement IDs. The ID
// list is sorted internally; candidate order (and therefore every
// admission tie-break) is the canonical pair order over the sorted IDs.
// The order given is the column order of the dense rows Observe reads.
// New refuses an AdmitAbove or EvictBelow that is NaN, infinite or above 1.
func New(ids []timeseries.MeasurementID, cfg Config) (*Discoverer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(ids) < 2 {
		return nil, fmt.Errorf("discover: need at least 2 measurements, got %d", len(ids))
	}
	sorted := make([]timeseries.MeasurementID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	idIdx := make(map[timeseries.MeasurementID]int, len(sorted))
	for i, id := range sorted {
		if _, dup := idIdx[id]; dup {
			return nil, fmt.Errorf("discover: duplicate measurement %s", id)
		}
		idIdx[id] = i
	}
	l := len(sorted)
	col := make([]int, l)
	for pos, id := range ids {
		col[idIdx[id]] = pos
	}
	rowStart := make([]int, l)
	for i := 1; i < l; i++ {
		rowStart[i] = rowStart[i-1] + (l - i)
	}
	d := &Discoverer{
		cfg:      cfg,
		ids:      sorted,
		idIdx:    idIdx,
		col:      col,
		rowStart: rowStart,
		numCand:  l * (l - 1) / 2,
		deg:      make([]int, l),
		hist:     make([][]float64, l),
	}
	for i := range d.hist {
		d.hist[i] = make([]float64, cfg.TrainWindow)
	}
	return d, nil
}

// Config returns the discoverer's effective (defaulted) configuration.
func (d *Discoverer) Config() Config { return d.cfg }

// IDs returns the sorted fleet the discoverer was built over.
func (d *Discoverer) IDs() []timeseries.MeasurementID {
	out := make([]timeseries.MeasurementID, len(d.ids))
	copy(out, d.ids)
	return out
}

// NumCandidates returns l(l−1)/2 — the full pair-candidate count.
func (d *Discoverer) NumCandidates() int { return d.numCand }

// pairAt maps a candidate index back to its (i, j) series indexes, i < j.
func (d *Discoverer) pairAt(c int) (int, int) {
	i := sort.Search(len(d.rowStart), func(k int) bool { return d.rowStart[k] > c }) - 1
	return i, i + 1 + (c - d.rowStart[i])
}

// candOf maps series indexes (either order) to the candidate index.
func (d *Discoverer) candOf(i, j int) int {
	if j < i {
		i, j = j, i
	}
	return d.rowStart[i] + (j - i - 1)
}

// pairOf renders a candidate index as a manager.Pair.
func (d *Discoverer) pairOf(c int) manager.Pair {
	i, j := d.pairAt(c)
	return manager.MakePair(d.ids[i], d.ids[j])
}

// candidateOf maps a pair to its candidate index, or −1 for IDs outside
// the fleet.
func (d *Discoverer) candidateOf(p manager.Pair) int {
	i, oki := d.idIdx[p.A]
	j, okj := d.idIdx[p.B]
	if !oki || !okj || i == j {
		return -1
	}
	return d.candOf(i, j)
}

// isAdmitted reports whether candidate c currently carries a model, via
// binary search over the sorted admitted slice.
func (d *Discoverer) isAdmitted(c int) bool {
	k := sort.Search(len(d.admitted), func(i int) bool { return d.admitted[i].c >= c })
	return k < len(d.admitted) && d.admitted[k].c == c
}

// admitEntry inserts e keeping the admitted slice sorted by candidate.
func (d *Discoverer) admitEntry(e *entry) {
	k := sort.Search(len(d.admitted), func(i int) bool { return d.admitted[i].c >= e.c })
	d.admitted = append(d.admitted, nil)
	copy(d.admitted[k+1:], d.admitted[k:])
	d.admitted[k] = e
	i, j := d.pairAt(e.c)
	d.deg[i]++
	d.deg[j]++
}

// Bootstrap scans the training rows once over every candidate (lag 0, no
// decay — this is the one place discovery is allowed O(l²), and it runs
// offline before streaming starts), then admits the strongest candidates
// under the budget and top-K rules and seeds the admitted sketches plus
// the history rings from the tail of the rows. Each row is dense, in the
// column order Observe reads, NaN for a gap. Returns the admitted pairs in
// canonical order.
func (d *Discoverer) Bootstrap(rows [][]float64) []manager.Pair {
	l := len(d.ids)
	n := make([]uint32, d.numCand)
	sxy := make([]float64, d.numCand)
	sn := make([]float64, l)
	sx := make([]float64, l)
	sxx := make([]float64, l)
	val := make([]float64, l)
	ok := make([]bool, l)
	for _, row := range rows {
		for i, c := range d.col {
			v := row[c]
			ok[i] = finite(v)
			if ok[i] {
				val[i] = v
				sn[i]++
				sx[i] += v
				sxx[i] += v * v
			}
		}
		for i := 0; i < l-1; i++ {
			if !ok[i] {
				continue
			}
			base := d.rowStart[i] - i - 1
			for j := i + 1; j < l; j++ {
				if ok[j] {
					c := base + j
					sxy[c] += val[i] * val[j]
					n[c]++
				}
			}
		}
	}
	mean := make([]float64, l)
	sd := make([]float64, l)
	for i := 0; i < l; i++ {
		if sn[i] > 1 {
			mean[i] = sx[i] / sn[i]
			v := sxx[i]/sn[i] - mean[i]*mean[i]
			if v > 0 {
				sd[i] = math.Sqrt(v)
			}
		}
	}
	type scored struct {
		c int
		r float64
	}
	cands := make([]scored, 0, d.numCand)
	for c := 0; c < d.numCand; c++ {
		if n[c] < 2 {
			continue
		}
		i, j := d.pairAt(c)
		if sd[i] == 0 || sd[j] == 0 {
			continue
		}
		r := clamp1((sxy[c]/float64(n[c]) - mean[i]*mean[j]) / (sd[i] * sd[j]))
		cands = append(cands, scored{c, r})
	}
	sort.Slice(cands, func(a, b int) bool {
		ra, rb := math.Abs(cands[a].r), math.Abs(cands[b].r)
		if ra != rb {
			return ra > rb
		}
		return cands[a].c < cands[b].c
	})
	var admittedPairs []manager.Pair
	for _, s := range cands {
		if d.cfg.Budget > 0 && len(d.admitted) >= d.cfg.Budget {
			break
		}
		i, j := d.pairAt(s.c)
		if d.deg[i] >= d.cfg.TopK && d.deg[j] >= d.cfg.TopK {
			continue
		}
		d.admitEntry(&entry{
			c:     s.c,
			sk:    NewSketch(d.cfg.Lags, d.cfg.Decay),
			score: s.r,
		})
		admittedPairs = append(admittedPairs, d.pairOf(s.c))
	}
	// Seed history and admitted sketches by replaying the training tail
	// through the streaming path (probes excluded, no round boundaries).
	tail := rows
	if len(tail) > d.cfg.TrainWindow {
		tail = tail[len(tail)-d.cfg.TrainWindow:]
	}
	for _, row := range tail {
		d.ingest(row)
		d.updateSketches(d.admitted, nil)
	}
	manager.SortPairs(admittedPairs)
	recordBootstrap(d)
	return admittedPairs
}

// ingest pushes one dense row (see Observe) into the history rings, whose
// newest slot the sketches then read. Non-finite values become NaN, which
// the sketches treat as gaps.
func (d *Discoverer) ingest(vals []float64) {
	d.histHead = (d.histHead + 1) % d.cfg.TrainWindow
	if d.histLen < d.cfg.TrainWindow {
		d.histLen++
	}
	for i, c := range d.col {
		v := vals[c]
		if !finite(v) {
			v = math.NaN()
		}
		d.hist[i][d.histHead] = v
	}
}

// updateSketches feeds the current row, the history's newest slot, into
// every admitted and probe sketch, in ascending candidate order within
// each set.
func (d *Discoverer) updateSketches(admitted []*entry, probe []probeEntry) {
	for _, e := range admitted {
		i, j := d.pairAt(e.c)
		e.sk.Update(d.hist[i][d.histHead], d.hist[j][d.histHead])
	}
	for _, p := range probe {
		i, j := d.pairAt(p.c)
		p.sk.Update(d.hist[i][d.histHead], d.hist[j][d.histHead])
	}
}

// selectProbes picks the next ProbeBatch non-admitted candidates starting
// at probeCursor (wrapping), with fresh sketches. When every candidate is
// admitted the probe set is empty.
func (d *Discoverer) selectProbes() {
	free := d.numCand - len(d.admitted)
	if free <= 0 {
		d.probe = nil
		return
	}
	want := d.cfg.ProbeBatch
	if want > free {
		want = free
	}
	d.probe = make([]probeEntry, 0, want)
	c := d.probeCursor % d.numCand
	for scanned := 0; scanned < d.numCand && len(d.probe) < want; scanned++ {
		if !d.isAdmitted(c) {
			d.probe = append(d.probe, probeEntry{c: c, sk: NewSketch(d.cfg.Lags, d.cfg.Decay)})
		}
		c = (c + 1) % d.numCand
	}
	d.probeCursor = c
}

// Observe feeds one scored row into discovery: vals[i] is the value of the
// i-th measurement New was given, NaN for a gap — the fleet's own dense
// row, read only until Observe returns. At round boundaries it returns the
// admissions and evictions the round decided; otherwise the zero Changes.
// The caller applies the changes to the pair graph.
func (d *Discoverer) Observe(vals []float64) Changes {
	if d.probe == nil && d.rowsInRound == 0 {
		d.selectProbes()
	}
	d.ingest(vals)
	t := sketchTimer()
	d.updateSketches(d.admitted, d.probe)
	t.observe()
	d.rowsInRound++
	if d.rowsInRound < d.cfg.RoundRows {
		return Changes{}
	}
	return d.endRound()
}

// endRound runs the eviction and admission policy and resets round state.
func (d *Discoverer) endRound() Changes {
	d.round++
	ch := Changes{Round: d.round}

	// Eviction: a sustained flat-line (|r| below the floor with enough
	// effective samples, EvictAfter rounds running) drops the pair.
	keep := d.admitted[:0]
	for _, e := range d.admitted {
		r, lag := e.sk.Corr()
		e.score, e.lag = r, lag
		if e.sk.EffSamples() >= d.cfg.MinEffSamples && math.Abs(r) < d.cfg.EvictBelow {
			e.lowRounds++
		} else {
			e.lowRounds = 0
		}
		if e.lowRounds >= d.cfg.EvictAfter {
			i, j := d.pairAt(e.c)
			d.deg[i]--
			d.deg[j]--
			ch.Evict = append(ch.Evict, d.pairOf(e.c))
			continue
		}
		keep = append(keep, e)
	}
	for i := len(keep); i < len(d.admitted); i++ {
		d.admitted[i] = nil
	}
	d.admitted = keep

	// Admission: the strongest probed candidates, |r| over the floor,
	// under the per-anchor top-K preference and the global budget. The
	// probe sketch rides along so the admitted pair keeps its history.
	strong := make([]*probeEntry, 0, len(d.probe))
	for k := range d.probe {
		p := &d.probe[k]
		if p.sk.EffSamples() < d.cfg.MinEffSamples {
			continue
		}
		if r, _ := p.sk.Corr(); math.Abs(r) >= d.cfg.AdmitAbove {
			strong = append(strong, p)
		}
	}
	sort.Slice(strong, func(a, b int) bool {
		ra, _ := strong[a].sk.Corr()
		rb, _ := strong[b].sk.Corr()
		aa, ab := math.Abs(ra), math.Abs(rb)
		if aa != ab {
			return aa > ab
		}
		return strong[a].c < strong[b].c
	})
	for _, p := range strong {
		if d.cfg.Budget > 0 && len(d.admitted) >= d.cfg.Budget {
			break
		}
		i, j := d.pairAt(p.c)
		if d.deg[i] >= d.cfg.TopK && d.deg[j] >= d.cfg.TopK {
			continue
		}
		r, lag := p.sk.Corr()
		d.admitEntry(&entry{c: p.c, sk: p.sk, score: r, lag: lag})
		ch.Admit = append(ch.Admit, d.pairOf(p.c))
	}

	d.probe = nil
	d.rowsInRound = 0
	manager.SortPairs(ch.Admit)
	manager.SortPairs(ch.Evict)
	recordRound(d, ch)
	return ch
}

// TrainingPoints assembles the lag-0 aligned training corpus for a pair
// from the history rings: one Point2 per retained row where both series
// are finite, oldest first. Nil when the pair is outside the fleet or
// fewer than MinTrain joint points exist.
func (d *Discoverer) TrainingPoints(p manager.Pair) []mathx.Point2 {
	c := d.candidateOf(p)
	if c < 0 || d.histLen == 0 {
		return nil
	}
	i, j := d.pairAt(c)
	pts := make([]mathx.Point2, 0, d.histLen)
	for k := d.histLen - 1; k >= 0; k-- {
		idx := (d.histHead - k + d.cfg.TrainWindow) % d.cfg.TrainWindow
		x, y := d.hist[i][idx], d.hist[j][idx]
		if finite(x) && finite(y) {
			pts = append(pts, mathx.Point2{X: x, Y: y})
		}
	}
	if len(pts) < d.cfg.MinTrain {
		return nil
	}
	return pts
}

// Admitted returns the admitted pairs in canonical order.
func (d *Discoverer) Admitted() []manager.Pair {
	out := make([]manager.Pair, len(d.admitted))
	for k, e := range d.admitted {
		out[k] = d.pairOf(e.c)
	}
	return out
}

// AdmissionScores returns each admitted pair's last best-lag correlation
// estimate (the admission score shown by /api/v1/topology).
func (d *Discoverer) AdmissionScores() map[manager.Pair]float64 {
	out := make(map[manager.Pair]float64, len(d.admitted))
	for _, e := range d.admitted {
		out[d.pairOf(e.c)] = e.score
	}
	return out
}

// BudgetInfo returns the current occupancy: admitted pairs, the budget
// (0 = unlimited), and the full candidate count.
func (d *Discoverer) BudgetInfo() (admitted, budget, candidates int) {
	return len(d.admitted), d.cfg.Budget, d.numCand
}

// SyncAdmitted forces the admitted set to exactly the given pairs with
// fresh sketches — the recovery fallback when no serialized discovery
// state survived but the recovered managers still hold a pair graph.
// Pairs outside the fleet are ignored.
func (d *Discoverer) SyncAdmitted(pairs []manager.Pair) {
	d.admitted = d.admitted[:0]
	for i := range d.deg {
		d.deg[i] = 0
	}
	cs := make([]int, 0, len(pairs))
	for _, p := range pairs {
		if c := d.candidateOf(p); c >= 0 {
			cs = append(cs, c)
		}
	}
	sort.Ints(cs)
	prev := -1
	for _, c := range cs {
		if c == prev {
			continue
		}
		prev = c
		d.admitEntry(&entry{c: c, sk: NewSketch(d.cfg.Lags, d.cfg.Decay)})
	}
	d.probe = nil
	d.rowsInRound = 0
	recordBootstrap(d)
}

// discovererState is the gob wire form of a Discoverer's mutable state.
// The configuration travels too so recovery can detect drift.
type discovererState struct {
	IDs      []string
	Cfg      Config
	Admitted []entryState
	Probe    []probeState
	Cursor   int
	RowsIn   int
	Round    uint64
	HistHead int
	HistLen  int
	Hist     [][]float64
}

type entryState struct {
	C         int
	Sk        *Sketch
	LowRounds int
	Score     float64
	Lag       int
}

type probeState struct {
	C  int
	Sk *Sketch
}

// MarshalState serializes the discoverer's mutable state for a durable
// checkpoint.
func (d *Discoverer) MarshalState() ([]byte, error) {
	st := discovererState{
		IDs:      make([]string, len(d.ids)),
		Cfg:      d.cfg,
		Admitted: make([]entryState, len(d.admitted)),
		Probe:    make([]probeState, len(d.probe)),
		Cursor:   d.probeCursor,
		RowsIn:   d.rowsInRound,
		Round:    d.round,
		HistHead: d.histHead,
		HistLen:  d.histLen,
		Hist:     d.hist,
	}
	for i, id := range d.ids {
		st.IDs[i] = id.String()
	}
	for i, e := range d.admitted {
		st.Admitted[i] = entryState{C: e.c, Sk: e.sk, LowRounds: e.lowRounds, Score: e.score, Lag: e.lag}
	}
	for i, p := range d.probe {
		st.Probe[i] = probeState{C: p.c, Sk: p.sk}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("discover: marshal state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores state serialized by MarshalState into a
// discoverer built over the same fleet. The serialized configuration is
// authoritative — it replaces the receiver's, exactly like a durable
// checkpoint's shard topology wins over flags at recovery — so the
// restored round, sketches, probes, history, and policy continue the
// pre-crash run precisely.
func (d *Discoverer) UnmarshalState(b []byte) error {
	var st discovererState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("discover: unmarshal state: %w", err)
	}
	if len(st.IDs) != len(d.ids) {
		return fmt.Errorf("discover: state has %d measurements, discoverer has %d", len(st.IDs), len(d.ids))
	}
	for i, id := range d.ids {
		if st.IDs[i] != id.String() {
			return fmt.Errorf("discover: state measurement %d is %s, want %s", i, st.IDs[i], id)
		}
	}
	if err := st.Cfg.validate(); err != nil {
		return err
	}
	st.Cfg = st.Cfg.withDefaults()
	if len(st.Hist) != len(d.ids) {
		return fmt.Errorf("discover: state history has %d series, want %d", len(st.Hist), len(d.ids))
	}
	for i, h := range st.Hist {
		if len(h) != st.Cfg.TrainWindow {
			return fmt.Errorf("discover: state history ring %d has %d slots, want %d", i, len(h), st.Cfg.TrainWindow)
		}
	}
	d.cfg = st.Cfg
	d.admitted = d.admitted[:0]
	for i := range d.deg {
		d.deg[i] = 0
	}
	for _, e := range st.Admitted {
		if e.C < 0 || e.C >= d.numCand || e.Sk == nil {
			return fmt.Errorf("discover: corrupt admitted entry")
		}
		d.admitEntry(&entry{c: e.C, sk: e.Sk, lowRounds: e.LowRounds, score: e.Score, lag: e.Lag})
	}
	d.probe = make([]probeEntry, len(st.Probe))
	for i, p := range st.Probe {
		if p.C < 0 || p.C >= d.numCand || p.Sk == nil {
			return fmt.Errorf("discover: corrupt probe entry")
		}
		d.probe[i] = probeEntry{c: p.C, sk: p.Sk}
	}
	if len(d.probe) == 0 {
		d.probe = nil
	}
	d.probeCursor = st.Cursor
	d.rowsInRound = st.RowsIn
	d.round = st.Round
	d.histHead = st.HistHead
	d.histLen = st.HistLen
	d.hist = st.Hist
	recordBootstrap(d)
	return nil
}
