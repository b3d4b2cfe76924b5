package manager

import (
	"math"
	"sort"
	"sync"
	"time"

	"mcorr/internal/alarm"
	"mcorr/internal/mathx"
	"mcorr/internal/obs"
	"mcorr/internal/timeseries"
)

// Outcome is one link's scoring result for a single row. It is the unit
// the scoring fabric hands to the Aggregator: the networked coordinator
// scatters per-worker Outcomes into one global slice (in canonical pair
// order) and aggregates them with exactly the same code path as the
// single-manager Step, which is what makes the two modes bit-identical.
type Outcome struct {
	// Fitness is the paper's rank-based score Q^{a,b} ∈ [0, 1].
	Fitness float64
	// Prob is the observed transition probability (the paper's δ check).
	Prob float64
	// Scored is false when the link produced no score (warm-up or gap).
	Scored bool
	// Gap marks a link reset by a missing or non-finite value.
	Gap bool
	// Grown marks an adaptive grid growth during this step.
	Grown bool
	// Steady marks an outcome the incremental scheduler may carry forward:
	// the link's model froze a self-transition run, so identical-cell
	// observations repeat this outcome bit-for-bit (see core.StepResult).
	Steady bool
}

// Aggregator folds per-pair Outcomes into the paper's three fitness
// levels — pair Q^{a,b}, measurement Q^a, system Q — maintains the
// running means behind localization, and raises threshold alarms. It is
// the single aggregation implementation shared by Manager.Step and the
// networked coordinator: both feed it the same outcomes in the same
// canonical pair order, so per-measurement sums accumulate in an
// identical float addition order and the resulting trajectories match to
// the last bit.
//
// Everything per measurement — the row's sums and counts, the report's
// Q^a, the running means — is a slice over the fleet's sorted ids, so a
// row hashes no name; alarms, accessors and checkpoints name them.
//
// An Aggregator is safe for concurrent use; Aggregate calls themselves
// must be serialized by the caller (the Manager's or coordinator's step
// lock does this), because they share the reused scratch buffers.
type Aggregator struct {
	mu  sync.Mutex
	cfg Config
	ids []timeseries.MeasurementID // sorted; shared read-only with every StepReport

	acc     []mathx.Online         // running Q^a means, parallel to ids
	pairAcc map[Pair]*mathx.Online // running Q^{a,b} means
	sysAcc  mathx.Online
	steps   int

	cntBuf    []int         // per-measurement scored-link counts, reused
	alarmBuf  []alarm.Alarm // alarms gathered during aggregation, reused
	pairTally *obs.Tally    // the row's pair fitness scores, published once a row
	measTally *obs.Tally    // the row's measurement fitness scores, likewise
}

// NewAggregator builds an aggregator over the measurement universe ids,
// sorted by MeasurementID.Less as every fleet's IDs() is. cfg supplies the
// thresholds, the alarm sink and the TrackPairMeans reporting flag; its
// model and worker settings are ignored here.
func NewAggregator(ids []timeseries.MeasurementID, cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	return &Aggregator{
		cfg:       cfg,
		ids:       append([]timeseries.MeasurementID(nil), ids...),
		acc:       make([]mathx.Online, len(ids)),
		cntBuf:    make([]int, len(ids)),
		pairTally: obsFitnessPair.NewTally(),
		measTally: obsFitnessMeas.NewTally(),
	}
}

// Aggregate folds one row's outcomes into a StepReport and publishes any
// threshold alarms in pair → measurement → system order. pairs, pairIdx
// and outcomes must be parallel slices in canonical (sorted) pair order;
// pairIdx[i] holds the indices of pairs[i]'s endpoints in the ids slice
// passed to NewAggregator. sp, when non-nil, receives the "alarm" phase
// mark before alarms are published.
func (g *Aggregator) Aggregate(t time.Time, pairs []Pair, pairIdx [][2]int, outcomes []Outcome, sp *obs.Span) StepReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	// The report's own Q^a slice (callers keep reports) holds the sums
	// until the division below.
	meas := make([]float64, len(g.ids))
	report := StepReport{Time: t, System: math.NaN(), IDs: g.ids, Measurements: meas}
	g.alarmBuf = g.alarmBuf[:0]
	var gaps, growths uint64
	for i := range g.cntBuf {
		g.cntBuf[i] = 0
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.Gap {
			gaps++
		}
		if o.Grown {
			growths++
		}
		if !o.Scored {
			continue
		}
		p := pairs[i]
		report.ScoredPairs++
		g.pairTally.Observe(o.Fitness)
		if g.cfg.TrackPairMeans {
			if g.pairAcc == nil {
				g.pairAcc = make(map[Pair]*mathx.Online, len(pairs))
			}
			if g.pairAcc[p] == nil {
				g.pairAcc[p] = &mathx.Online{}
			}
			g.pairAcc[p].Add(o.Fitness)
		}
		ab := pairIdx[i]
		meas[ab[0]] += o.Fitness
		g.cntBuf[ab[0]]++
		meas[ab[1]] += o.Fitness
		g.cntBuf[ab[1]]++
		if g.cfg.ProbDelta > 0 && o.Prob < g.cfg.ProbDelta {
			g.alarmBuf = append(g.alarmBuf, alarm.Alarm{
				Time: t, Severity: alarm.SeverityWarning, Scope: alarm.ScopePair,
				Measurement: p.A, Peer: p.B,
				Score: o.Prob, Threshold: g.cfg.ProbDelta,
				Message: "transition probability below delta",
			})
		}
	}
	g.pairTally.Publish()
	var sysSum float64
	var sysN int
	for k, c := range g.cntBuf {
		if c == 0 {
			meas[k] = math.NaN()
			continue
		}
		q := meas[k] / float64(c)
		meas[k] = q
		g.measTally.Observe(q)
		g.acc[k].Add(q)
		sysSum += q
		sysN++
		if g.cfg.MeasurementThreshold > 0 && q < g.cfg.MeasurementThreshold {
			g.alarmBuf = append(g.alarmBuf, alarm.Alarm{
				Time: t, Severity: alarm.SeverityWarning, Scope: alarm.ScopeMeasurement,
				Measurement: g.ids[k], Score: q, Threshold: g.cfg.MeasurementThreshold,
				Message: "measurement fitness below threshold",
			})
		}
	}
	g.measTally.Publish()
	if sysN > 0 {
		report.System = sysSum / float64(sysN)
		obsFitnessSys.Observe(report.System)
		g.sysAcc.Add(report.System)
		g.steps++
		if g.cfg.SystemThreshold > 0 && report.System < g.cfg.SystemThreshold {
			g.alarmBuf = append(g.alarmBuf, alarm.Alarm{
				Time: t, Severity: alarm.SeverityCritical, Scope: alarm.ScopeSystem,
				Score: report.System, Threshold: g.cfg.SystemThreshold,
				Message: "system fitness below threshold",
			})
		}
	}
	if sp != nil {
		sp.Phase("alarm")
	}
	for i := range g.alarmBuf {
		if g.cfg.Sink != nil {
			g.cfg.Sink.Publish(g.alarmBuf[i])
		}
	}
	obsRows.Inc()
	if report.ScoredPairs > 0 {
		obsPairsScored.Add(uint64(report.ScoredPairs))
	}
	if gaps > 0 {
		obsGaps.Add(gaps)
	}
	if growths > 0 {
		obsGrowths.Add(growths)
	}
	report.GrownPairs = int(growths)
	return report
}

// IDs returns the measurement universe the aggregator was built over.
func (g *Aggregator) IDs() []timeseries.MeasurementID {
	return append([]timeseries.MeasurementID(nil), g.ids...)
}

// MeasurementMeans returns the running mean Q^a per measurement since the
// last ResetAccumulators.
func (g *Aggregator) MeasurementMeans() map[timeseries.MeasurementID]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[timeseries.MeasurementID]float64)
	for k := range g.acc {
		if g.acc[k].N() > 0 {
			out[g.ids[k]] = g.acc[k].Mean()
		}
	}
	return out
}

// SystemMean returns the running mean system fitness Q.
func (g *Aggregator) SystemMean() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sysAcc.Mean()
}

// Steps returns how many aggregated rows produced a system score.
func (g *Aggregator) Steps() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.steps
}

// ResetAccumulators clears the running means (e.g. between experiment
// phases) without touching any model state.
func (g *Aggregator) ResetAccumulators() {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.acc)
	g.pairAcc = nil
	g.sysAcc = mathx.Online{}
	g.steps = 0
}

// PairMeans returns the accumulated mean fitness per link since the last
// ResetAccumulators (nil unless Config.TrackPairMeans).
func (g *Aggregator) PairMeans() map[Pair]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pairAcc == nil {
		return nil
	}
	out := make(map[Pair]float64, len(g.pairAcc))
	for p, o := range g.pairAcc {
		out[p] = o.Mean()
	}
	return out
}

// WorstPairs returns the k links with the lowest mean fitness since the
// last ResetAccumulators — the paper's Q^{a,b} drill-down ("all the links
// leading to a measurement have problems ⇒ that measurement is the
// source"). Requires Config.TrackPairMeans; otherwise nil.
func (g *Aggregator) WorstPairs(k int) []PairScore {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pairAcc == nil {
		return nil
	}
	out := make([]PairScore, 0, len(g.pairAcc))
	for p, o := range g.pairAcc {
		out = append(out, PairScore{Pair: p, Score: o.Mean(), Samples: o.N()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		if out[i].Pair.A != out[j].Pair.A {
			return out[i].Pair.A.Less(out[j].Pair.A)
		}
		return out[i].Pair.B.Less(out[j].Pair.B)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Localize rolls the accumulated per-measurement means up to machines and
// ranks them worst-first (the paper's drill-down from Q to the problem
// source).
func (g *Aggregator) Localize() Localization {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	// Fold in the stable measurement order, so machine scores never differ
	// in the last ulp between otherwise identical runs.
	g.mu.Lock()
	for k, id := range g.ids {
		if q := g.acc[k].Mean(); !math.IsNaN(q) {
			sums[id.Machine] += q
			counts[id.Machine]++
		}
	}
	g.mu.Unlock()
	var out Localization
	for machine, s := range sums {
		out.Machines = append(out.Machines, MachineScore{
			Machine: machine, Score: s / float64(counts[machine]), Measurements: counts[machine],
		})
	}
	sort.Slice(out.Machines, func(i, j int) bool {
		if out.Machines[i].Score != out.Machines[j].Score {
			return out.Machines[i].Score < out.Machines[j].Score
		}
		return out.Machines[i].Machine < out.Machines[j].Machine
	})
	return out
}

// state extracts the persistable accumulator state (see persist.go).
func (g *Aggregator) state() (entries []accEntry, sys [3]float64, steps int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, mean, m2 := g.sysAcc.State()
	sys = [3]float64{float64(n), mean, m2}
	// ids order is MeasurementID.Less order, the order entries are saved in.
	for k, acc := range g.acc {
		if an, amean, am2 := acc.State(); an > 0 {
			entries = append(entries, accEntry{ID: g.ids[k], State: [3]float64{float64(an), amean, am2}})
		}
	}
	return entries, sys, g.steps
}

// restore installs persisted accumulator state (see persist.go). An entry
// naming a measurement outside the aggregator's ids has nothing to feed.
func (g *Aggregator) restore(entries []accEntry, sys [3]float64, steps int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	clear(g.acc)
	for _, e := range entries {
		if k, ok := searchID(g.ids, e.ID); ok {
			g.acc[k].Restore(int(e.State[0]), e.State[1], e.State[2])
		}
	}
	g.sysAcc.Restore(int(sys[0]), sys[1], sys[2])
	g.steps = steps
}
