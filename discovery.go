package mcorr

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/diagnose"
	"mcorr/internal/discover"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
)

// DiscoveryConfig tunes the correlation-discovery tier (see
// internal/discover): the streaming sketch shape, the probe cadence, and
// the admission/eviction policy over the bounded pair graph.
type DiscoveryConfig = discover.Config

// DiscoveryEvent records one discovery round that changed the pair graph.
type DiscoveryEvent struct {
	// Time is the timestamp of the row whose round boundary decided the
	// change.
	Time time.Time
	// Round is the 1-based discovery round.
	Round uint64
	// Admitted and Evicted are the pairs the round added and removed.
	Admitted []Pair
	Evicted  []Pair
	// Pairs is the graph size after applying the round.
	Pairs int
}

// WithPairBudget bounds the monitor's pair graph at n admitted pairs and
// turns on the discovery tier with default policy settings: the strongest
// n candidates are modeled (per-anchor top-K preferred), the rest are
// probed by streaming correlation sketches, and flat-lined models are
// evicted to make room. n <= 0 keeps the full l(l−1)/2 graph but still
// runs discovery (eviction only frees genuinely dead links).
func WithPairBudget(n int) MonitorOption {
	return func(o *monitorOptions) {
		if o.discovery == nil {
			o.discovery = &DiscoveryConfig{}
		}
		if n < 0 {
			n = 0
		}
		o.discovery.Budget = n
	}
}

// WithDiscovery turns on the discovery tier with full control over the
// sketch shape and admission/eviction policy. Compose with WithPairBudget
// in either order (the budget set last wins if both set one).
func WithDiscovery(cfg DiscoveryConfig) MonitorOption {
	return func(o *monitorOptions) {
		budget := 0
		if o.discovery != nil && cfg.Budget == 0 {
			budget = o.discovery.Budget
		}
		c := cfg
		if budget != 0 {
			c.Budget = budget
		}
		o.discovery = &c
	}
}

// ParsePairBudget parses a -pair-budget flag value for a fleet of l
// measurements: "" or "full" mean the full graph (budget 0), "25%" means
// a quarter of l(l−1)/2 (rounded up, at least 1), and a bare integer is
// an absolute pair count.
func ParsePairBudget(s string, l int) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "full") {
		return 0, nil
	}
	candidates := l * (l - 1) / 2
	if pct, ok := strings.CutSuffix(s, "%"); ok {
		f, err := strconv.ParseFloat(strings.TrimSpace(pct), 64)
		if err != nil || !(f > 0 && f <= 100) { // written so that NaN fails too
			return 0, fmt.Errorf("pair budget %q: want a percentage in (0, 100]", s)
		}
		n := int(math.Ceil(f / 100 * float64(candidates)))
		if n < 1 {
			n = 1
		}
		return n, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("pair budget %q: want \"full\", \"N%%\" or a non-negative pair count", s)
	}
	return n, nil
}

// DiscoveryFleet is the surface a discovery-bounded fleet adds on top of
// Fleet: the graph-change event stream and the budget/score views. The
// fleets built by NewDiscoveryFleet (and by a Monitor with WithPairBudget
// or WithDiscovery) satisfy it.
type DiscoveryFleet interface {
	Fleet
	// DrainDiscoveryEvents returns the graph changes applied since the
	// last drain, oldest first, and clears the buffer. The buffer keeps
	// the newest 1024 (mcorr_discover_events_dropped_total counts the
	// rest).
	DrainDiscoveryEvents() []DiscoveryEvent
	// AdmissionScores returns each admitted pair's last correlation
	// estimate.
	AdmissionScores() map[Pair]float64
	// BudgetInfo returns the admitted pair count, the budget (0 =
	// unlimited) and the candidate count l(l−1)/2.
	BudgetInfo() (admitted, budget, candidates int)
}

// NewDiscoveryFleet trains a discovery-bounded scoring fleet: the
// discoverer bootstraps on the training history, only the admitted pairs
// get transition models, and every subsequent Step feeds the sketches and
// applies round-boundary graph changes. This is the batch-flow mirror of
// building a Monitor with WithPairBudget/WithDiscovery.
func NewDiscoveryFleet(history *Dataset, cfg ManagerConfig, dcfg DiscoveryConfig) (DiscoveryFleet, error) {
	return newDiscoveryFleet(history, cfg, dcfg)
}

// maxDiscoveryEvents bounds the graph-change events a discovery fleet
// buffers between two DrainDiscoveryEvents calls: past it the oldest are
// dropped and counted.
const maxDiscoveryEvents = 1024

var obsDiscoverEventsDropped = obs.Default().Counter("mcorr_discover_events_dropped_total",
	"Discovery graph-change events dropped, oldest first, from a buffer nobody drained.")

// discoveryFleet wraps a Manager with the discovery tier: every scored row
// also feeds the correlation sketches, and round boundaries mutate the live
// pair graph (train+admit, evict) through the manager's graph-mutation
// primitives. Steps and graph mutations happen on the caller's goroutine
// in row order, so trajectories and the graph itself are deterministic
// functions of the row stream. Everything but Step and StepValues is the
// embedded manager's own method — Manager.Run included, which would score
// past the discoverer, so the wrapper is only ever handed out as a Fleet.
type discoveryFleet struct {
	*Manager
	disc *discover.Discoverer
	rows *manager.MapRows // Step(Row) over this wrapper's StepValues

	events []DiscoveryEvent
}

// wrapFleet attaches a discoverer built over the manager's IDs() to it.
func wrapFleet(mgr *Manager, disc *discover.Discoverer) *discoveryFleet {
	d := &discoveryFleet{Manager: mgr, disc: disc}
	d.rows = manager.NewMapRows(mgr.IDs(), d.StepValues)
	return d
}

// Interface proofs: the wrapper is a fleet and serves both diagnosis views.
var (
	_ Fleet                  = (*discoveryFleet)(nil)
	_ diagnose.FleetView     = (*discoveryFleet)(nil)
	_ diagnose.DiscoveryView = (*discoveryFleet)(nil)
)

// newDiscoveryFleet bootstraps discovery on the training history, trains
// models for only the admitted pairs, and wraps the resulting fleet.
func newDiscoveryFleet(history *Dataset, cfg ManagerConfig, dcfg DiscoveryConfig) (*discoveryFleet, error) {
	ids := history.IDs()
	disc, err := discover.New(ids, dcfg)
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	if err := history.EachRow(ids, datasetStart(history), datasetEnd(history), func(_ time.Time, row []float64) {
		rows = append(rows, slices.Clone(row))
	}); err != nil {
		return nil, err
	}
	admitted := disc.Bootstrap(rows)
	keep := make(map[Pair]bool, len(admitted))
	for _, p := range admitted {
		keep[p] = true
	}
	mgr, err := manager.NewSubset(history, cfg, func(p Pair) bool { return keep[p] })
	if err != nil {
		return nil, err
	}
	d := wrapFleet(mgr, disc)
	// Some admitted candidates may have no trainable overlap; resync the
	// discoverer to the pairs that actually carry a model so the graph,
	// the checkpoint, and the budget occupancy agree.
	if got := d.Pairs(); len(got) != len(admitted) {
		disc.SyncAdmitted(got)
	}
	return d, nil
}

// wrapRecoveredFleet attaches discovery to a fleet restored from a
// durable checkpoint: the discoverer's serialized state (when present)
// reproduces sketches, probes and round position exactly; otherwise the
// admitted set is resynced from the recovered pair graph with fresh
// sketches.
func wrapRecoveredFleet(mgr *Manager, dcfg DiscoveryConfig, state []byte) (*discoveryFleet, error) {
	disc, err := discover.New(mgr.IDs(), dcfg)
	if err != nil {
		return nil, err
	}
	d := wrapFleet(mgr, disc)
	if len(state) > 0 {
		if err := disc.UnmarshalState(state); err != nil {
			return nil, err
		}
	} else {
		disc.SyncAdmitted(mgr.Pairs())
	}
	return d, nil
}

// datasetStart returns the earliest series start in ds.
func datasetStart(ds *Dataset) time.Time {
	var t time.Time
	for i, id := range ds.IDs() {
		if s := ds.Get(id); i == 0 || s.Start.Before(t) {
			t = s.Start
		}
	}
	return t
}

// datasetEnd returns the latest series end in ds.
func datasetEnd(ds *Dataset) time.Time {
	var t time.Time
	for _, id := range ds.IDs() {
		if end := ds.Get(id).End(); end.After(t) {
			t = end
		}
	}
	return t
}

// Step scores one map row through StepValues, so the fleet and the
// discoverer read the same dense conversion of it.
func (d *discoveryFleet) Step(row Row) StepReport { return d.rows.Step(row) }

// StepValues runs the row's two halves in order: the scoring half, the
// wrapped fleet's StepValues, makes the report, and the learning half
// (learn) then feeds the row to the discovery tier. A Monitor runs the two
// itself and delivers the report between them.
func (d *discoveryFleet) StepValues(t time.Time, vals []float64) StepReport {
	report := d.Manager.StepValues(t, vals)
	d.learn(t, vals)
	return report
}

// learn is a row's learning half: it feeds the row to the discovery
// sketches and applies any round-boundary graph changes before the next
// row is scored: evictions free the model, admissions train a model from
// the discoverer's retained history window and graft it in without
// touching neighbors. Nothing in it can change the row's own report.
func (d *discoveryFleet) learn(t time.Time, vals []float64) {
	if ch := d.disc.Observe(vals); !ch.Empty() {
		d.apply(t, ch)
	}
}

// apply mutates the live pair graph per one round's changes and records
// the event for DrainDiscoveryEvents.
func (d *discoveryFleet) apply(t time.Time, ch discover.Changes) {
	for _, p := range ch.Evict {
		d.RemovePair(p)
	}
	var admitted []Pair
	modelCfg := d.Config().Model // the fleet's effective settings, defaults applied
	for _, p := range ch.Admit {
		pts := d.disc.TrainingPoints(p)
		if pts == nil {
			continue // not enough joint history yet; the sketch stays live
		}
		model, err := core.Train(pts, modelCfg)
		if err != nil {
			continue // degenerate window (e.g. constant); retry next round
		}
		if d.AddModel(p, model) != nil {
			continue
		}
		admitted = append(admitted, p)
	}
	ev := DiscoveryEvent{
		Time:     t,
		Round:    ch.Round,
		Admitted: admitted,
		Evicted:  append([]Pair(nil), ch.Evict...),
		Pairs:    len(d.Pairs()),
	}
	if len(d.events) == maxDiscoveryEvents {
		// Nobody has drained for maxDiscoveryEvents graph changes: drop the
		// oldest, so an undrained fleet's buffer stays bounded.
		d.events = d.events[1:]
		obsDiscoverEventsDropped.Inc()
	}
	d.events = append(d.events, ev)
}

// DrainDiscoveryEvents returns the graph changes applied since the last
// drain, oldest first — at most maxDiscoveryEvents of them — and clears
// the buffer.
func (d *discoveryFleet) DrainDiscoveryEvents() []DiscoveryEvent {
	ev := d.events
	d.events = nil
	return ev
}

// Discovery surface (diagnose.DiscoveryView).

// AdmissionScores returns each admitted pair's last correlation estimate.
func (d *discoveryFleet) AdmissionScores() map[Pair]float64 { return d.disc.AdmissionScores() }

// BudgetInfo returns (admitted, budget, candidates) for the pair graph.
func (d *discoveryFleet) BudgetInfo() (admitted, budget, candidates int) {
	return d.disc.BudgetInfo()
}
