package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"mcorr/internal/baseline"
	"mcorr/internal/core"
	"mcorr/internal/mathx"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// pairTimeline trains a pairwise model on the group's history and scores
// the pair over [from, to). It returns one fitness sample and one
// transition-probability sample per scored transition — the paper's two
// detection signals (the rank-based Q for plots, P(x_t → x_{t+1}) vs δ for
// alarms).
func pairTimeline(g *Group, a, b timeseries.MeasurementID, trainDays int, from, to time.Time, cfg core.Config) (fitness, probs []ScoredSample, model *core.Model, err error) {
	trFrom, trTo := timeseries.TrainingSplit(trainDays)
	history, err := g.PairPoints(a, b, trFrom, trTo)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pair timeline train: %w", err)
	}
	model, err = core.Train(history, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pair timeline train: %w", err)
	}
	pts, err := g.PairPoints(a, b, from, to)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pair timeline test: %w", err)
	}
	step := g.Dataset.Get(a).Step
	for i, p := range pts {
		res := model.Step(p)
		if res.Scored {
			tm := from.Add(time.Duration(i) * step)
			fitness = append(fitness, ScoredSample{Time: tm, Score: res.Fitness})
			probs = append(probs, ScoredSample{Time: tm, Score: res.Prob})
		}
	}
	return fitness, probs, model, nil
}

// explainWorst retrains the pair model and replays the window up to
// worstAt, returning the model's explanation of that transition — the
// paper's §6 narrative ("values stay within [a,b] & [c,d], an anomalous
// jump to [e,f] & [g,h] is observed").
func explainWorst(g *Group, a, b timeseries.MeasurementID, trainDays int, from time.Time, worstAt time.Time, cfg core.Config) (string, error) {
	trFrom, trTo := timeseries.TrainingSplit(trainDays)
	history, err := g.PairPoints(a, b, trFrom, trTo)
	if err != nil {
		return "", err
	}
	model, err := core.Train(history, cfg)
	if err != nil {
		return "", err
	}
	pts, err := g.PairPoints(a, b, from, worstAt.Add(g.Dataset.Get(a).Step))
	if err != nil {
		return "", err
	}
	step := g.Dataset.Get(a).Step
	for i, p := range pts {
		tm := from.Add(time.Duration(i) * step)
		if tm.Equal(worstAt) {
			ex, ok := model.Explain(p, 1)
			if !ok {
				return "", fmt.Errorf("no position to explain at %v", worstAt)
			}
			if ex.OutOfGrid {
				return fmt.Sprintf("at %s the pair sat in %s; the observation left the previously learned region entirely (an offline model scores it 0; the adaptive model grows its boundary)",
					worstAt.Format("15:04"), ex.From), nil
			}
			return fmt.Sprintf("at %s the pair sat in %s and the model expected %s (p=%.3f); the observed jump to %s ranked %d of %d (Q=%.3f)",
				worstAt.Format("15:04"), ex.From, ex.Expected[0], ex.Expected[0].Prob,
				ex.Observed, ex.Observed.Rank, model.NumCells(), ex.Fitness), nil
		}
		model.Step(p)
	}
	return "", fmt.Errorf("time %v not in window", worstAt)
}

// pairTruth restricts a group's ground truth to faults touching either
// measurement of a pair.
func pairTruth(g *Group, a, b timeseries.MeasurementID) *simulator.GroundTruth {
	out := &simulator.GroundTruth{}
	for _, f := range g.Truth.Faults {
		if f.Matches(a.Machine, a.Metric) || f.Matches(b.Machine, b.Metric) {
			out.Faults = append(out.Faults, f)
		}
	}
	return out
}

// Fig12ProblemDetermination reproduces Figure 12: fitness scores over the
// event day for the three groups' problem pairs, with the ground-truth
// fault windows and detection metrics.
func Fig12ProblemDetermination(env *Env, trainDays int) (*Figure, error) {
	if trainDays <= 0 {
		trainDays = 15
	}
	day := timeseries.TestStart
	// Detection thresholds the rank-based fitness score Q. (The paper's
	// Figure-6 sketch thresholds the raw transition probability against
	// δ, but under the multiplicative updates the posterior concentrates
	// until rare-but-normal moves have astronomically small probability
	// too — the rank statistic is scale-free and robust, which is why
	// the paper's own evaluation plots Q.)
	const qThreshold = 0.5

	quarters := &Table{
		Title:   "Mean fitness per six-hour quarter of the event day",
		Columns: []string{"group", "12am-6am", "6am-12pm", "12pm-6pm", "6pm-12am", "fault window"},
	}
	detect := &Table{
		Title:   fmt.Sprintf("Detection against ground truth (alarm when Q < %.2f)", qThreshold),
		Columns: []string{"group", "events", "detected", "mean delay", "false-alarm rate", "normal mean Q", "fault mean Q", "min Q in fault"},
	}
	spark := &Table{
		Title:   "Fitness over the event day (downsampled sparklines, scale 0..1)",
		Columns: []string{"group", "timeline"},
	}

	var notes []string
	allDetected := true
	dipsInWindow := true
	for _, g := range env.Groups {
		fit, _, _, err := pairTimeline(g, g.EventPair[0], g.EventPair[1], trainDays,
			day, day.AddDate(0, 0, 1), core.Config{Adaptive: true})
		if err != nil {
			return nil, fmt.Errorf("fig12 group %s: %w", g.Name, err)
		}
		qm := QuarterMeans(fit)
		quarters.AddRow("Group "+g.Name,
			fmt.Sprintf("%.3f", qm[0]), fmt.Sprintf("%.3f", qm[1]),
			fmt.Sprintf("%.3f", qm[2]), fmt.Sprintf("%.3f", qm[3]),
			fmt.Sprintf("%s-%s", g.EventFault.Start.Format("15:04"), g.EventFault.End.Format("15:04")))

		truth := pairTruth(g, g.EventPair[0], g.EventPair[1])
		m := EvaluateDetection(fit, truth, qThreshold)
		qStats := m
		minQ := math.Inf(1)
		var minAt time.Time
		for _, s := range fit {
			if g.EventFault.ActiveAt(s.Time) && s.Score < minQ {
				minQ, minAt = s.Score, s.Time
			}
		}
		// The paper's human-debugging narrative: the measurement ranges
		// of the anomalous transition.
		if !minAt.IsZero() {
			story, err := explainWorst(g, g.EventPair[0], g.EventPair[1], trainDays, day, minAt, core.Config{Adaptive: true})
			if err == nil {
				notes = append(notes, fmt.Sprintf("Group %s: %s.", g.Name, story))
			}
		}
		detect.AddRow("Group "+g.Name,
			fmt.Sprintf("%d", m.Events), fmt.Sprintf("%d", m.Detected),
			m.MeanDelay.String(), fmt.Sprintf("%.3f", m.FalseAlarmRate),
			fmt.Sprintf("%.3f", qStats.NormalMean), fmt.Sprintf("%.3f", qStats.FaultMean),
			fmt.Sprintf("%.3f", minQ))
		if m.Detected < m.Events {
			allDetected = false
		}
		if !(minQ < qStats.NormalMean-0.2) {
			dipsInWindow = false
		}
		spark.AddRow("Group "+g.Name, Sparkline(Downsample(Scores(fit), 72), 0, 1))
	}
	switch {
	case allDetected && dipsInWindow:
		notes = append(notes, "All three ground-truth problems are detected inside their windows (morning for A, afternoon for B and C), each producing the paper's deep downward fitness spike.")
	case allDetected:
		notes = append(notes, "All three problems are detected; one group's fitness dip is shallower than the paper's plots.")
	default:
		notes = append(notes, "WARNING: not every injected problem was detected.")
	}
	return &Figure{
		ID:     "fig12",
		Title:  "Fitness scores when system problems occur",
		Tables: []*Table{quarters, spark, detect},
		Notes:  notes,
	}, nil
}

// Fig14Localization reproduces Figure 14: average fitness per machine
// across each group, with the chronically sick machine expected to rank
// worst.
func Fig14Localization(env *Env, trainDays, testDays, measurementsPerGroup int) (*Figure, error) {
	if trainDays <= 0 {
		trainDays = 8
	}
	if testDays <= 0 {
		testDays = 9
	}
	if measurementsPerGroup <= 0 {
		measurementsPerGroup = 24
	}
	tab := &Table{
		Title:   fmt.Sprintf("Average fitness per machine over a %d-day test", testDays),
		Columns: []string{"group", "machines", "sick machine", "suspect (lowest Q)", "sick Q", "median Q", "correct"},
	}
	dist := &Table{
		Title:   "Per-machine score distribution (machines sorted by name; * marks the sick machine)",
		Columns: []string{"group", "scores"},
	}
	var notes []string
	correct := 0
	for _, g := range env.Groups {
		mgr, ids, err := trainGroupManager(g, trainDays, measurementsPerGroup, true)
		if err != nil {
			return nil, fmt.Errorf("fig14 group %s: %w", g.Name, err)
		}
		from, to := timeseries.TestSplit(testDays)
		if _, err := mgr.Run(Subset(g.Dataset, ids).Slice(from, to), from, to); err != nil {
			return nil, fmt.Errorf("fig14 group %s: %w", g.Name, err)
		}
		loc := mgr.Localize()
		var sickQ, median float64
		scores := make([]float64, 0, len(loc.Machines))
		var distCells []string
		for _, ms := range loc.Machines {
			scores = append(scores, ms.Score)
			if ms.Machine == g.SickMachine {
				sickQ = ms.Score
			}
		}
		median = mathx.Quantile(scores, 0.5)
		// Render per machine in name order.
		byName := make(map[string]float64, len(loc.Machines))
		names := make([]string, 0, len(loc.Machines))
		for _, ms := range loc.Machines {
			byName[ms.Machine] = ms.Score
			names = append(names, ms.Machine)
		}
		sort.Strings(names)
		for _, n := range names {
			mark := ""
			if n == g.SickMachine {
				mark = "*"
			}
			distCells = append(distCells, fmt.Sprintf("%s%.2f", mark, byName[n]))
		}
		ok := loc.Suspect() == g.SickMachine
		if ok {
			correct++
		}
		tab.AddRow("Group "+g.Name, fmt.Sprintf("%d", len(loc.Machines)),
			g.SickMachine, loc.Suspect(),
			fmt.Sprintf("%.3f", sickQ), fmt.Sprintf("%.3f", median), fmt.Sprintf("%v", ok))
		dist.AddRow("Group "+g.Name, strings.Join(distCells, " "))
	}
	if correct == len(env.Groups) {
		notes = append(notes, "In every group the chronically faulty machine has the lowest average fitness — the paper's Figure 14 localization story (one clearly low machine per group).")
	} else {
		notes = append(notes, fmt.Sprintf("Localization correct in %d of %d groups.", correct, len(env.Groups)))
	}
	return &Figure{
		ID:     "fig14",
		Title:  "Q scores w.r.t. machine locations (problem localization)",
		Tables: []*Table{tab, dist},
		Notes:  notes,
	}, nil
}

// BaselineComparison is the extension experiment: the paper's model vs the
// two prior-work baselines on the three correlation shapes and on a
// temporal (flapping) anomaly.
func BaselineComparison(env *Env) (*Figure, error) {
	gC := env.Group("C")
	gA := env.Group("A")
	day := timeseries.TestStart
	trainFrom, trainTo := timeseries.TrainingSplit(8)

	type scenario struct {
		label string
		g     *Group
		a, b  timeseries.MeasurementID
	}
	scenarios := []scenario{
		{
			label: "decoupled spike on non-linear pair (A)",
			g:     gA, a: gA.EventPair[0], b: gA.EventPair[1],
		},
		{
			// Machine-wide flapping keeps this pair ON its learned
			// manifold — every individual point is normal, only the
			// transitions are anomalous.
			label: "machine flapping, on-manifold pair (C)",
			g:     gC,
			a:     timeseries.MeasurementID{Machine: gC.EventFault.Machine, Metric: simulator.MetricNetIn},
			b:     timeseries.MeasurementID{Machine: gC.EventFault.Machine, Metric: simulator.MetricNetOut},
		},
	}

	tab := &Table{
		Title:   "Mean detector score inside vs outside the fault window (event day)",
		Columns: []string{"scenario", "detector", "normal", "fault", "separation"},
	}
	var notes []string
	for _, sc := range scenarios {
		history, err := sc.g.PairPoints(sc.a, sc.b, trainFrom, trainTo)
		if err != nil {
			return nil, fmt.Errorf("baselines %s: %w", sc.label, err)
		}
		pts, err := sc.g.PairPoints(sc.a, sc.b, day, day.AddDate(0, 0, 1))
		if err != nil {
			return nil, fmt.Errorf("baselines %s: %w", sc.label, err)
		}
		model, err := core.Train(history, core.Config{Adaptive: false})
		if err != nil {
			return nil, fmt.Errorf("baselines %s: %w", sc.label, err)
		}
		li, err := baseline.TrainLinearInvariant(history)
		if err != nil {
			return nil, fmt.Errorf("baselines %s: %w", sc.label, err)
		}
		gmm, err := baseline.TrainGMMEllipse(history, baseline.GMMEllipseConfig{Seed: 42})
		if err != nil {
			return nil, fmt.Errorf("baselines %s: %w", sc.label, err)
		}
		detectors := []baseline.PairDetector{
			&baseline.TransitionAdapter{Model: model}, li, gmm,
		}
		fault := sc.g.EventFault
		step := sc.g.Dataset.Get(sc.a).Step
		for _, det := range detectors {
			var normSum, faultSum float64
			var normN, faultN int
			det.Reset()
			for i, p := range pts {
				tm := day.Add(time.Duration(i) * step)
				s, ok := det.Step(p)
				if !ok {
					continue
				}
				if fault.ActiveAt(tm) {
					faultSum += s
					faultN++
				} else {
					normSum += s
					normN++
				}
			}
			normal := normSum / float64(normN)
			faultMean := math.NaN()
			if faultN > 0 {
				faultMean = faultSum / float64(faultN)
			}
			tab.AddRow(sc.label, det.Name(),
				fmt.Sprintf("%.3f", normal), fmt.Sprintf("%.3f", faultMean),
				fmt.Sprintf("%+.3f", normal-faultMean))
		}
	}
	notes = append(notes,
		"Separation = normal − fault mean score; larger is better.",
		"The transition model separates both scenarios. The mixture ellipses are blind to the decoupled spike on the non-linear pair (its points still fall inside some cluster) and react only weakly to machine-wide flapping, where each point individually remains in a learned cluster and only the transitions are anomalous — the paper's core argument for modeling temporal correlations. (The ARX invariant reacts to flapping because its one-step prediction also carries temporal state, but it is unusable on non-linear pairs: note its degraded normal-score level.)")
	return &Figure{
		ID:     "baselines",
		Title:  "Comparison with prior-work detectors (linear invariants, GMM ellipses)",
		Tables: []*Table{tab},
		Notes:  notes,
	}, nil
}
