package diagnose

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/manager"
	"mcorr/internal/mathx"
	"mcorr/internal/timeseries"
)

// Config tunes the diagnosis engine. The zero value is usable: every
// field has a default applied by withDefaults.
type Config struct {
	// OpenBelow is the system-fitness threshold: an incident opens when Q
	// stays below it. Default 0.8.
	OpenBelow float64
	// OpenAfter is how many consecutive rows Q must stay below OpenBelow
	// before an incident opens (debounces single-row blips). Default 2.
	OpenAfter int
	// MeasurementBreak is the Q^a level below which a measurement counts
	// as broken when the digest walks the history. Default 0.5.
	MeasurementBreak float64
}

func (c Config) withDefaults() Config {
	if c.OpenBelow <= 0 {
		c.OpenBelow = 0.8
	}
	if c.OpenAfter <= 0 {
		c.OpenAfter = 2
	}
	if c.MeasurementBreak <= 0 {
		c.MeasurementBreak = 0.5
	}
	return c
}

// The engine's fixed tuning.
const (
	// closeAfter is how many consecutive rows Q must stay at or above
	// OpenBelow before the open incident closes.
	closeAfter = 5
	// historyRows is the per-measurement (and system) fitness ring
	// capacity in rows.
	historyRows = 512
	// lookback is how many rows before the impact time the digest
	// searches for the first break.
	lookback = 48
	// refreshEvery re-ranks an open incident's digest every so many
	// observed rows (it always refreshes on open and close).
	refreshEvery = 4
	// maxCandidates caps the ranked candidate list in the digest.
	maxCandidates = 8
	// maxChain caps the temporal chain in the digest.
	maxChain = 16
	// maxIncidents caps how many closed incidents the engine retains
	// (oldest evicted first).
	maxIncidents = 64
)

// ringRadii are the temporal ring radii, in rows around the impact time,
// used to bucket break times (|break − T| ≤ radius). Breaks beyond the
// last radius land in an unbounded outer ring.
var ringRadii = [...]int{2, 8, 32}

// FitnessPoint is one sample of a fitness history: the score Q observed
// at time T.
type FitnessPoint struct {
	T time.Time `json:"t"`
	Q float64   `json:"q"`
}

// ring is a fixed-capacity fitness history. Points arrive in time order;
// the oldest is evicted when full.
type ring struct {
	buf  []FitnessPoint
	next int
	n    int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]FitnessPoint, capacity)}
}

func (r *ring) push(p FitnessPoint) {
	r.buf[r.next] = p
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// each visits the retained points oldest-first.
func (r *ring) each(fn func(FitnessPoint)) {
	start := (r.next - r.n + 2*len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		fn(r.buf[(start+i)%len(r.buf)])
	}
}

// tail returns the newest min(n, retained) points oldest-first as a copy
// (all retained points when n <= 0).
func (r *ring) tail(n int) []FitnessPoint {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]FitnessPoint, 0, n)
	start := (r.next - n + 2*len(r.buf)) % len(r.buf)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Candidate is one ranked root-cause candidate in a Digest.
type Candidate struct {
	// Measurement is the candidate's ID rendered as "metric@machine".
	Measurement string `json:"measurement"`
	// Machine and Metric split the ID for family grouping.
	Machine string `json:"machine"`
	Metric  string `json:"metric"`
	// BreakTime is when the measurement's Q^a first crossed below the
	// break threshold inside the lookback window.
	BreakTime time.Time `json:"break_time"`
	// Ring indexes the ring radii (2, 8 and 32 rows): the smallest one
	// containing |BreakTime − ImpactTime|, 3 for the unbounded outer ring.
	Ring int `json:"ring"`
	// Lowest is the measurement's minimum Q^a inside the window.
	Lowest float64 `json:"lowest"`
	// QAtBreak is Q^a on the break row.
	QAtBreak float64 `json:"q_at_break"`
	// Drop is the healthy-baseline mean minus Lowest (clamped at 0).
	Drop float64 `json:"drop"`
	// FanOut counts the measurement's partners whose pair alarm (the
	// paper's δ) fired inside the window — the paper's "all the links
	// leading to a measurement have problems" signal. It is 0 when the
	// fleet runs without δ.
	FanOut int `json:"fan_out"`
	// Score is the ranking score (higher = more likely root cause).
	Score float64 `json:"score"`
}

// Family is a group of broken measurements sharing a machine or metric.
type Family struct {
	// Kind is "machine" or "metric".
	Kind string `json:"kind"`
	// Key is the shared machine or metric name.
	Key string `json:"key"`
	// Size is how many broken measurements the family holds.
	Size int `json:"size"`
	// Measurements lists the members as "metric@machine".
	Measurements []string `json:"measurements"`
}

// ChainEntry is one link of the temporal chain: a measurement breaking
// at a point in time.
type ChainEntry struct {
	T           time.Time `json:"t"`
	Measurement string    `json:"measurement"`
	// Q is the measurement's fitness at the moment it broke.
	Q float64 `json:"q"`
}

// MachineRank is one machine in the Localize rollup attached to a
// digest, worst fitness first.
type MachineRank struct {
	Machine string  `json:"machine"`
	Score   float64 `json:"score"`
	// Measurements is how many measurements contributed to the score.
	Measurements int `json:"measurements"`
}

// RingCount reports how many measurements first broke inside one
// temporal ring around the impact time.
type RingCount struct {
	// Radius is the ring radius in rows (-1 for the unbounded outer ring).
	Radius int `json:"radius"`
	// Broken is how many measurements first broke within this ring and
	// not within a smaller one.
	Broken int `json:"broken"`
}

// Incident states.
const (
	// StateOpen marks an incident still in progress.
	StateOpen = "open"
	// StateClosed marks an incident whose system fitness recovered.
	StateClosed = "closed"
)

// Digest is the compact, serializable explanation of one incident.
type Digest struct {
	// ID is stable across crash recovery: it derives from the incident
	// sequence number and impact time, both replayed deterministically.
	ID string `json:"id"`
	// State is StateOpen or StateClosed.
	State string `json:"state"`
	// Severity is "info", "warning" or "critical".
	Severity string `json:"severity"`
	// ImpactTime is T: the first row of the below-threshold run.
	ImpactTime time.Time `json:"impact_time"`
	// OpenedAt is the row that confirmed the incident (OpenAfter rows
	// after ImpactTime).
	OpenedAt time.Time `json:"opened_at"`
	// ClosedAt is when the incident closed (zero while open).
	ClosedAt time.Time `json:"closed_at"`
	// UpdatedAt is the row of the last digest refresh.
	UpdatedAt time.Time `json:"updated_at"`
	// SystemAtOpen is Q on the row the incident opened.
	SystemAtOpen float64 `json:"system_at_open"`
	// SystemLow is the lowest Q observed during the incident.
	SystemLow float64 `json:"system_low"`
	// Broken is how many measurements broke inside the lookback window
	// (the candidate list is capped; this count is not).
	Broken int `json:"broken_measurements"`
	// Candidates are the ranked root-cause candidates, best first.
	Candidates []Candidate `json:"candidates"`
	// Suspect is the top candidate's machine ("" when no candidate).
	Suspect string `json:"suspect"`
	// Machines is the Localize rollup at the last refresh, worst first.
	Machines []MachineRank `json:"machines,omitempty"`
	// Families group the broken measurements by machine and by metric.
	Families []Family `json:"families"`
	// Chain is the temporal chain of breaks, earliest first.
	Chain []ChainEntry `json:"chain"`
	// Rings bucket the break times around ImpactTime.
	Rings []RingCount `json:"rings"`
	// PairAlarms / MeasurementAlarms / SystemAlarms count alarms
	// published during the incident by scope.
	PairAlarms        int `json:"pair_alarms"`
	MeasurementAlarms int `json:"measurement_alarms"`
	SystemAlarms      int `json:"system_alarms"`
}

// clone deep-copies a digest so callers can hold it without racing
// future refreshes.
func (d *Digest) clone() Digest {
	out := *d
	out.Candidates = append([]Candidate(nil), d.Candidates...)
	out.Machines = append([]MachineRank(nil), d.Machines...)
	out.Chain = append([]ChainEntry(nil), d.Chain...)
	out.Rings = append([]RingCount(nil), d.Rings...)
	out.Families = make([]Family, len(d.Families))
	for i, f := range d.Families {
		f.Measurements = append([]string(nil), f.Measurements...)
		out.Families[i] = f
	}
	return out
}

// measState is the engine's per-measurement memory: the fitness ring,
// the healthy baseline, and the broken-peer stamps feeding fan-out.
type measState struct {
	ring *ring
	base mathx.Online
	// peers maps a peer measurement to the last time a pair alarm
	// between the two fired.
	peers map[timeseries.MeasurementID]time.Time
}

// Engine is the anomaly-triggered root-cause engine. Feed it every
// StepReport through Observe; read incidents and histories through the
// accessors (all safe for concurrent use).
// Observe binds to a report's ids slice, resolving each id to its state
// on its first score, so a row names no measurement; alarms, histories
// and persistence do.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	// step is the row cadence inferred from consecutive system points;
	// it converts ring radii (rows) to durations.
	step time.Duration

	sys   *ring
	meas  map[timeseries.MeasurementID]*measState
	order []timeseries.MeasurementID // sorted keys of meas
	// at[k] is the state of bound[k], the ids of the reports bound, or
	// nil until that measurement's first score.
	bound []timeseries.MeasurementID
	at    []*measState

	// Incident state machine.
	belowRun, aboveRun int
	runStart           time.Time
	open               *Digest
	closed             []*Digest // newest last
	seq                uint64
	sinceRefresh       int

	// Cumulative alarm counts by scope, with the snapshot taken when the
	// current below-run started (so a digest reports per-incident deltas).
	cntPair, cntMeas, cntSys    int
	basePair, baseMeas, baseSys int

	localize func() manager.Localization
}

// NewEngine builds an engine. The measurement universe is discovered
// from the observed reports, so no dataset is needed up front.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:  cfg,
		sys:  newRing(historyRows),
		meas: make(map[timeseries.MeasurementID]*measState),
	}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetLocalizeFn attaches the fleet's machine-level localization so each
// digest refresh can include the Localize rollup. The function is called
// outside the engine lock, right after the refresh that needs it.
func (e *Engine) SetLocalizeFn(fn func() manager.Localization) {
	e.mu.Lock()
	e.localize = fn
	e.mu.Unlock()
}

// WrapSink returns a sink that records pair-scope alarms for fan-out
// attribution and per-incident alarm counts, then forwards every alarm
// to next (nil next just records). Wrap the fleet's sink with this
// before constructing the fleet so the engine sees the full stream.
func (e *Engine) WrapSink(next alarm.Sink) alarm.Sink {
	return &sinkWrapper{e: e, next: next}
}

type sinkWrapper struct {
	e    *Engine
	next alarm.Sink
}

func (s *sinkWrapper) Publish(a alarm.Alarm) {
	s.e.noteAlarm(a)
	if s.next != nil {
		s.next.Publish(a)
	}
}

func (e *Engine) noteAlarm(a alarm.Alarm) {
	e.mu.Lock()
	switch a.Scope {
	case alarm.ScopePair:
		e.cntPair++
		e.notePeerLocked(a.Measurement, a.Peer, a.Time)
		e.notePeerLocked(a.Peer, a.Measurement, a.Time)
	case alarm.ScopeMeasurement:
		e.cntMeas++
	case alarm.ScopeSystem:
		e.cntSys++
	}
	e.mu.Unlock()
}

// notePeerLocked stamps "the pair model between id and peer broke at t".
// Only the latest stamp is kept, so feeding order never matters.
func (e *Engine) notePeerLocked(id, peer timeseries.MeasurementID, t time.Time) {
	st := e.measStateLocked(id)
	if st.peers == nil {
		st.peers = make(map[timeseries.MeasurementID]time.Time)
	}
	if cur, ok := st.peers[peer]; !ok || t.After(cur) {
		st.peers[peer] = t
	}
}

func (e *Engine) measStateLocked(id timeseries.MeasurementID) *measState {
	st := e.meas[id]
	if st == nil {
		st = &measState{ring: newRing(historyRows)}
		e.meas[id] = st
		i := sort.Search(len(e.order), func(i int) bool { return !e.order[i].Less(id) })
		e.order = append(e.order, timeseries.MeasurementID{})
		copy(e.order[i+1:], e.order[i:])
		e.order[i] = id
	}
	return st
}

// Observe feeds one finished step report into the engine: fitness
// histories, baselines, fan-out stamps, and the incident state machine.
// It must be called from a single goroutine in row order (the Monitor's
// scoring funnel), after the fleet scored the row.
func (e *Engine) Observe(r manager.StepReport) {
	e.mu.Lock()
	needLoc := e.observeLocked(r)
	locFn := e.localize
	e.mu.Unlock()

	// The Localize rollup locks the aggregator, which also publishes
	// alarms into this engine while holding its own lock — so the call
	// happens outside e.mu and the result is attached afterwards.
	if needLoc != "" && locFn != nil {
		loc := locFn()
		ranks := make([]MachineRank, 0, len(loc.Machines))
		for _, m := range loc.Machines {
			ranks = append(ranks, MachineRank{Machine: m.Machine, Score: m.Score, Measurements: m.Measurements})
		}
		e.mu.Lock()
		if d := e.findLocked(needLoc); d != nil {
			d.Machines = ranks
			if d.Suspect == "" && len(ranks) > 0 {
				d.Suspect = ranks[0].Machine
			}
		}
		e.mu.Unlock()
	}
}

// observeLocked runs the per-row bookkeeping and state machine; it
// returns the ID of a digest that was just refreshed (and therefore
// wants a fresh Localize rollup), or "".
func (e *Engine) observeLocked(r manager.StepReport) string {
	t := r.Time
	// A row only feeds the baselines when the system is healthy — no open
	// incident, no below-threshold run in progress, and this row itself
	// above the open threshold (otherwise the first row of an outage would
	// drag the reference point down before belowRun catches up).
	healthy := e.open == nil && e.belowRun == 0 && !(r.System < e.cfg.OpenBelow)
	if len(r.IDs) != len(e.bound) || len(r.IDs) > 0 && &r.IDs[0] != &e.bound[0] {
		e.bound, e.at = r.IDs, make([]*measState, len(r.IDs))
	}
	for k, q := range r.Measurements {
		if math.IsNaN(q) {
			continue // none of its links scored
		}
		st := e.at[k]
		if st == nil {
			st = e.measStateLocked(r.IDs[k])
			e.at[k] = st
		}
		st.ring.push(FitnessPoint{T: t, Q: q})
		if healthy {
			// Baselines learn only from healthy rows so an incident
			// cannot drag its own reference point down.
			st.base.Add(q)
		}
	}
	if math.IsNaN(r.System) {
		return ""
	}
	e.inferStepLocked(t)
	e.sys.push(FitnessPoint{T: t, Q: r.System})
	if r.System < e.cfg.OpenBelow {
		if e.belowRun == 0 {
			e.runStart = t
			if e.open == nil {
				e.basePair, e.baseMeas, e.baseSys = e.cntPair, e.cntMeas, e.cntSys
			}
		}
		e.belowRun++
		e.aboveRun = 0
	} else {
		e.belowRun = 0
		e.aboveRun++
	}

	switch {
	case e.open == nil:
		if e.belowRun >= e.cfg.OpenAfter {
			e.openLocked(t, r.System)
			e.refreshLocked(t)
			return e.open.ID
		}
	default:
		if r.System < e.open.SystemLow {
			e.open.SystemLow = r.System
		}
		e.sinceRefresh++
		if e.aboveRun >= closeAfter {
			e.refreshLocked(t)
			return e.closeLocked(t)
		}
		if e.sinceRefresh >= refreshEvery {
			e.refreshLocked(t)
			return e.open.ID
		}
	}
	return ""
}

// inferStepLocked learns the row cadence from the newest system point.
func (e *Engine) inferStepLocked(t time.Time) {
	if e.step > 0 || e.sys.n == 0 {
		return
	}
	last := e.sys.buf[(e.sys.next-1+len(e.sys.buf))%len(e.sys.buf)]
	if d := t.Sub(last.T); d > 0 {
		e.step = d
	}
}

// stepLocked returns the inferred row cadence, defaulting to the
// paper's sampling interval until two system points have been seen.
func (e *Engine) stepLocked() time.Duration {
	if e.step > 0 {
		return e.step
	}
	return timeseries.SampleStep
}

func (e *Engine) openLocked(t time.Time, sys float64) {
	e.seq++
	impact := e.runStart
	d := &Digest{
		ID:           fmt.Sprintf("inc-%d-%s", e.seq, impact.UTC().Format("20060102T150405Z")),
		State:        StateOpen,
		ImpactTime:   impact,
		OpenedAt:     t,
		UpdatedAt:    t,
		SystemAtOpen: sys,
		SystemLow:    sys,
	}
	// The run may already hold rows lower than the opening one.
	e.sys.each(func(p FitnessPoint) {
		if !p.T.Before(impact) && p.Q < d.SystemLow {
			d.SystemLow = p.Q
		}
	})
	e.open = d
	e.sinceRefresh = 0
	obsOpenIncidents.Set(1)
	obsOpened.Inc()
}

// closeLocked retires the open incident and returns its ID.
func (e *Engine) closeLocked(t time.Time) string {
	d := e.open
	d.State = StateClosed
	d.ClosedAt = t
	d.UpdatedAt = t
	e.open = nil
	e.closed = append(e.closed, d)
	if len(e.closed) > maxIncidents {
		e.closed = e.closed[len(e.closed)-maxIncidents:]
	}
	obsOpenIncidents.Set(0)
	obsClosed.Inc()
	return d.ID
}

// refreshLocked recomputes the open incident's digest: candidates,
// families, chain, rings, severity.
func (e *Engine) refreshLocked(now time.Time) {
	start := time.Now()
	d := e.open
	step := e.stepLocked()
	from := d.ImpactTime.Add(-lookback * step)

	rings := make([]RingCount, len(ringRadii)+1)
	for i, radius := range ringRadii {
		rings[i].Radius = radius
	}
	rings[len(ringRadii)].Radius = -1

	var cands []Candidate
	for _, id := range e.order {
		st := e.meas[id]
		var (
			brokeAt  time.Time
			qAtBreak float64
			lowest   = math.Inf(1)
			found    bool
		)
		st.ring.each(func(p FitnessPoint) {
			if p.T.Before(from) || p.T.After(now) {
				return
			}
			if p.Q < lowest {
				lowest = p.Q
			}
			if !found && p.Q < e.cfg.MeasurementBreak {
				brokeAt, qAtBreak, found = p.T, p.Q, true
			}
		})
		if !found {
			continue
		}
		fan := 0
		for _, pt := range st.peers {
			if !pt.Before(from) && !pt.After(now) {
				fan++
			}
		}
		drop := 0.0
		if st.base.N() > 0 {
			if delta := st.base.Mean() - lowest; delta > 0 {
				drop = delta
			}
		}
		ringIdx := ringOf(brokeAt, d.ImpactTime, step)
		rings[ringIdx].Broken++
		cands = append(cands, Candidate{
			Measurement: id.String(),
			Machine:     id.Machine,
			Metric:      id.Metric,
			BreakTime:   brokeAt,
			Ring:        ringIdx,
			Lowest:      lowest,
			QAtBreak:    qAtBreak,
			Drop:        drop,
			FanOut:      fan,
		})
	}

	// Rank: depth of the drop dominates (the faulty measurement's Q^a
	// collapses across all its links while a healthy peer only loses
	// one), fan-out second, break order third. Ties resolve on break
	// time then ID so the ranking is deterministic.
	var earliest, latest time.Time
	maxFan := 0
	for i := range cands {
		if i == 0 || cands[i].BreakTime.Before(earliest) {
			earliest = cands[i].BreakTime
		}
		if i == 0 || cands[i].BreakTime.After(latest) {
			latest = cands[i].BreakTime
		}
		if cands[i].FanOut > maxFan {
			maxFan = cands[i].FanOut
		}
	}
	span := latest.Sub(earliest)
	for i := range cands {
		lead := 0.0
		if span > 0 {
			lead = float64(latest.Sub(cands[i].BreakTime)) / float64(span)
		}
		fanFrac := 0.0
		if maxFan > 0 {
			fanFrac = float64(cands[i].FanOut) / float64(maxFan)
		}
		cands[i].Score = 2*cands[i].Drop + fanFrac + 0.5*lead
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		if !cands[i].BreakTime.Equal(cands[j].BreakTime) {
			return cands[i].BreakTime.Before(cands[j].BreakTime)
		}
		return cands[i].Measurement < cands[j].Measurement
	})

	d.Broken = len(cands)
	d.Rings = rings
	d.Families = buildFamilies(cands)
	d.Chain = buildChain(cands)
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	d.Candidates = cands
	if len(cands) > 0 {
		d.Suspect = cands[0].Machine
	}
	d.PairAlarms = e.cntPair - e.basePair
	d.MeasurementAlarms = e.cntMeas - e.baseMeas
	d.SystemAlarms = e.cntSys - e.baseSys
	d.Severity = e.severityLocked(d)
	d.UpdatedAt = now
	e.sinceRefresh = 0
	obsRefreshSeconds.Observe(time.Since(start).Seconds())
}

// ringOf buckets a break time into the smallest ring radius covering its
// distance (in rows) from the impact time.
func ringOf(brokeAt, impact time.Time, step time.Duration) int {
	delta := brokeAt.Sub(impact)
	if delta < 0 {
		delta = -delta
	}
	rows := int(delta / step)
	for i, radius := range ringRadii {
		if rows <= radius {
			return i
		}
	}
	return len(ringRadii)
}

// severityLocked grades an incident by how deep the system fitness fell
// and how broadly the breakage spread.
func (e *Engine) severityLocked(d *Digest) string {
	breadth := 0.0
	if len(e.meas) > 0 {
		breadth = float64(d.Broken) / float64(len(e.meas))
	}
	switch {
	case d.SystemLow < e.cfg.OpenBelow*0.75 || breadth >= 0.5:
		return "critical"
	case d.SystemLow < e.cfg.OpenBelow*0.95 || breadth >= 0.1:
		return "warning"
	default:
		return "info"
	}
}

// buildFamilies groups broken measurements by machine and by metric,
// largest families first (key order breaks ties).
func buildFamilies(cands []Candidate) []Family {
	byMachine := map[string][]string{}
	byMetric := map[string][]string{}
	for _, c := range cands {
		byMachine[c.Machine] = append(byMachine[c.Machine], c.Measurement)
		byMetric[c.Metric] = append(byMetric[c.Metric], c.Measurement)
	}
	out := make([]Family, 0, len(byMachine)+len(byMetric))
	for _, g := range []struct {
		kind string
		m    map[string][]string
	}{{"machine", byMachine}, {"metric", byMetric}} {
		for key, members := range g.m {
			sort.Strings(members)
			out = append(out, Family{Kind: g.kind, Key: key, Size: len(members), Measurements: members})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// buildChain orders the breaks earliest-first and caps the list.
func buildChain(cands []Candidate) []ChainEntry {
	chain := make([]ChainEntry, 0, len(cands))
	for _, c := range cands {
		chain = append(chain, ChainEntry{T: c.BreakTime, Measurement: c.Measurement, Q: c.QAtBreak})
	}
	sort.Slice(chain, func(i, j int) bool {
		if !chain[i].T.Equal(chain[j].T) {
			return chain[i].T.Before(chain[j].T)
		}
		return chain[i].Measurement < chain[j].Measurement
	})
	if len(chain) > maxChain {
		chain = chain[:maxChain]
	}
	return chain
}

// findLocked locates a digest by ID among the open incident and the
// retained closed ones.
func (e *Engine) findLocked(id string) *Digest {
	if e.open != nil && e.open.ID == id {
		return e.open
	}
	for i := len(e.closed) - 1; i >= 0; i-- {
		if e.closed[i].ID == id {
			return e.closed[i]
		}
	}
	return nil
}

// Incidents returns every retained incident, open first, then closed
// newest-first. The digests are deep copies.
func (e *Engine) Incidents() []Digest {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Digest, 0, len(e.closed)+1)
	if e.open != nil {
		out = append(out, e.open.clone())
	}
	for i := len(e.closed) - 1; i >= 0; i-- {
		out = append(out, e.closed[i].clone())
	}
	return out
}

// Incident returns the digest with the given ID.
func (e *Engine) Incident(id string) (Digest, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.findLocked(id); d != nil {
		return d.clone(), true
	}
	return Digest{}, false
}

// OpenCount returns 1 while an incident is open, else 0 (the value of
// the mcorr_incident_open gauge).
func (e *Engine) OpenCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.open != nil {
		return 1
	}
	return 0
}

// SystemHistory returns the newest window system-fitness points,
// oldest first (the full ring when window <= 0).
func (e *Engine) SystemHistory(window int) []FitnessPoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sys.tail(window)
}

// History returns the newest window fitness points for one measurement,
// oldest first, and whether the measurement is known.
func (e *Engine) History(id timeseries.MeasurementID, window int) ([]FitnessPoint, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.meas[id]
	if st == nil {
		return nil, false
	}
	return st.ring.tail(window), true
}

// HistoryByName is History keyed by the rendered "metric@machine" form.
func (e *Engine) HistoryByName(name string, window int) ([]FitnessPoint, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range e.order {
		if id.String() == name {
			return e.meas[id].ring.tail(window), true
		}
	}
	return nil, false
}

// Measurements returns the known measurement IDs in sorted order.
func (e *Engine) Measurements() []timeseries.MeasurementID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]timeseries.MeasurementID(nil), e.order...)
}
