package eval

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mcorr/internal/mathx"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// EnvConfig sizes the reproduction environment.
type EnvConfig struct {
	// Seed drives every group's generator.
	Seed int64
	// Machines per group; default 12.
	Machines int
	// Days of monitoring data; default 30 (the paper's May 29 – Jun 27).
	Days int
}

func (c EnvConfig) withDefaults() EnvConfig {
	if c.Machines <= 0 {
		c.Machines = 12
	}
	if c.Days <= 0 {
		c.Days = 30
	}
	return c
}

// Group is one simulated company infrastructure with its ground truth.
type Group struct {
	Name    string
	Dataset *timeseries.Dataset
	Truth   *simulator.GroundTruth
	// EventPair is the measurement pair carrying the group's Figure-12
	// problem event, and EventFault its ground-truth window.
	EventPair  [2]timeseries.MeasurementID
	EventFault simulator.Fault
	// SickMachine carries recurring problems through the test window
	// (the Figure-14 localization target).
	SickMachine string
}

// Env is the full reproduction environment: groups A, B and C.
type Env struct {
	Cfg    EnvConfig
	Groups []*Group
}

// NewEnv generates the three groups. Mirroring the paper's events, group
// A's problem occurs in the morning of June 13 and groups B and C's in the
// afternoon; each group also has one chronically sick machine across the
// test days (June 13–25).
func NewEnv(cfg EnvConfig) (*Env, error) {
	cfg = cfg.withDefaults()
	env := &Env{Cfg: cfg}
	eventDay := timeseries.TestStart

	specs := []struct {
		name   string
		fault  simulator.Fault
		metric [2]string // the pair whose link carries the event
	}{
		{
			name: "A",
			// The paper's Group A problem: CurrentUtilization_PORT vs
			// ifOutOctetsRate_PORT, found in the morning.
			fault: simulator.MorningFault("A-event", simulator.MachineName("A", 1),
				simulator.MetricPortUtil, simulator.FaultDecoupledSpike, eventDay, 1),
			metric: [2]string{simulator.MetricPortUtil, simulator.MetricNetOut},
		},
		{
			name: "B",
			// Group B: ifOutOctetsRate vs ifInOctetsRate, afternoon.
			fault: simulator.AfternoonFault("B-event", simulator.MachineName("B", 1),
				simulator.MetricNetOut, simulator.FaultCorrelationBreak, eventDay, 2.5),
			metric: [2]string{simulator.MetricNetOut, simulator.MetricNetIn},
		},
		{
			name: "C",
			// Group C: CurrentUtilization vs ifOutOctetsRate, afternoon.
			// Machine-wide flapping: every metric on the machine follows
			// the flapped load, so each pair stays on its correlation
			// manifold — only the transitions are anomalous. This is the
			// case static detectors cannot see.
			fault: simulator.Fault{
				ID: "C-event", Machine: simulator.MachineName("C", 1),
				Metric: "", Kind: simulator.FaultFlapping,
				Start: eventDay.Add(15 * time.Hour), End: eventDay.Add(17 * time.Hour),
			},
			metric: [2]string{simulator.MetricPortUtil, simulator.MetricNetOut},
		},
	}

	for gi, spec := range specs {
		sick := simulator.MachineName(spec.name, 3)
		faults := []simulator.Fault{spec.fault}
		// The sick machine misbehaves for four hours every test day.
		for d := 0; d < 13; d++ {
			day := timeseries.TestStart.AddDate(0, 0, d)
			faults = append(faults, simulator.Fault{
				ID:      fmt.Sprintf("%s-sick-%d", spec.name, d),
				Machine: sick, Metric: "",
				Kind:  simulator.FaultDecoupledSpike,
				Start: day.Add(12 * time.Hour), End: day.Add(16 * time.Hour),
			})
		}
		ds, gt, err := simulator.Generate(simulator.GroupConfig{
			Name:     spec.name,
			Machines: cfg.Machines,
			Days:     cfg.Days,
			Seed:     cfg.Seed + int64(gi)*1000,
			Faults:   faults,
		})
		if err != nil {
			return nil, fmt.Errorf("env group %s: %w", spec.name, err)
		}
		env.Groups = append(env.Groups, &Group{
			Name:    spec.name,
			Dataset: ds,
			Truth:   gt,
			EventPair: [2]timeseries.MeasurementID{
				{Machine: spec.fault.Machine, Metric: spec.metric[0]},
				{Machine: spec.fault.Machine, Metric: spec.metric[1]},
			},
			EventFault:  spec.fault,
			SickMachine: sick,
		})
	}
	return env, nil
}

// Group returns the named group, or nil.
func (e *Env) Group(name string) *Group {
	for _, g := range e.Groups {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// PairPoints aligns a measurement pair over [from, to).
func (g *Group) PairPoints(a, b timeseries.MeasurementID, from, to time.Time) ([]mathx.Point2, error) {
	sa := g.Dataset.Get(a)
	sb := g.Dataset.Get(b)
	if sa == nil || sb == nil {
		return nil, fmt.Errorf("group %s: unknown pair %s ~ %s", g.Name, a, b)
	}
	pts, _, err := timeseries.AlignPair(sa.Slice(from, to), sb.Slice(from, to))
	return pts, err
}

// SelectionCriteria mirror the paper's §6 measurement-selection rules.
type SelectionCriteria struct {
	// Max measurements to select; 0 selects all qualifying.
	Max int
	// MinCV is the minimum coefficient of variation ("high variance
	// during the monitoring period"); default 0.05.
	MinCV float64
	// ExcludeLinear drops measurements having |Pearson| ≥ LinearR with
	// any other candidate ("do not have any linear relationships").
	ExcludeLinear bool
	// LinearR is the linear-relationship cutoff; default 0.95.
	LinearR float64
}

// SelectMeasurements applies the criteria over the given window and
// returns qualifying IDs ranked by descending coefficient of variation.
func SelectMeasurements(ds *timeseries.Dataset, from, to time.Time, crit SelectionCriteria) []timeseries.MeasurementID {
	if crit.MinCV == 0 {
		crit.MinCV = 0.05
	}
	if crit.LinearR == 0 {
		crit.LinearR = 0.95
	}
	window := ds.Slice(from, to)
	type cand struct {
		id timeseries.MeasurementID
		cv float64
	}
	var cands []cand
	for _, id := range window.IDs() {
		s := window.Get(id)
		mean, std := s.Stats()
		if math.IsNaN(mean) || mean == 0 {
			continue
		}
		cv := std / math.Abs(mean)
		if cv >= crit.MinCV {
			cands = append(cands, cand{id: id, cv: cv})
		}
	}
	if crit.ExcludeLinear {
		// Drop any candidate with a (near-)linear relationship to another.
		linear := make(map[timeseries.MeasurementID]bool)
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if linear[cands[i].id] && linear[cands[j].id] {
					continue
				}
				pts, _, err := timeseries.AlignPair(window.Get(cands[i].id), window.Get(cands[j].id))
				if err != nil || len(pts) < 3 {
					continue
				}
				xs := make([]float64, len(pts))
				ys := make([]float64, len(pts))
				for k, p := range pts {
					xs[k], ys[k] = p.X, p.Y
				}
				r, err := mathx.Pearson(xs, ys)
				if err == nil && math.Abs(r) >= crit.LinearR {
					linear[cands[i].id] = true
					linear[cands[j].id] = true
				}
			}
		}
		kept := cands[:0]
		for _, c := range cands {
			if !linear[c.id] {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cv != cands[j].cv {
			return cands[i].cv > cands[j].cv
		}
		return cands[i].id.Less(cands[j].id)
	})
	if crit.Max > 0 && len(cands) > crit.Max {
		cands = cands[:crit.Max]
	}
	out := make([]timeseries.MeasurementID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Subset returns a dataset restricted to the given measurements.
func Subset(ds *timeseries.Dataset, ids []timeseries.MeasurementID) *timeseries.Dataset {
	out := timeseries.NewDataset()
	for _, id := range ids {
		if s := ds.Get(id); s != nil {
			out.Add(s)
		}
	}
	return out
}
