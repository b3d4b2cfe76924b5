package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mcorr"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// The detection-quality harness answers the question the pair budget
// raises: how much detection and localization does the system give up
// when it models only a fraction of the l(l−1)/2 pair graph? It replays
// the incident-layer acceptance scenario (group D, injected fault on one
// machine) at a sweep of pair budgets and scores each run's timeline
// against the simulator's ground truth.

// QualityBudgets is the default budget sweep: the full graph baseline
// plus three shrinking fractions of the candidate set.
var QualityBudgets = []string{"full", "50%", "25%", "10%"}

// QualityThreshold is the system-fitness alarm threshold the harness
// scores timelines against (the paper's Q < 0.8 operating point).
const QualityThreshold = 0.8

// qualityFaultKinds are the injected scenarios, one run per kind.
var qualityFaultKinds = []simulator.FaultKind{
	simulator.FaultFlapping,
	simulator.FaultDecoupledSpike,
	simulator.FaultCorrelationBreak,
}

// FaultQuality is one (budget, fault kind) cell of the sweep.
type FaultQuality struct {
	// Kind is the injected simulator fault kind.
	Kind string `json:"kind"`
	// Detected reports whether system Q breached the threshold inside
	// the fault window.
	Detected bool `json:"detected"`
	// DetectDelaySeconds is the time from fault start to the first
	// breaching sample (0 when undetected).
	DetectDelaySeconds float64 `json:"detect_delay_seconds"`
	// FalseAlarmRate is the fraction of non-fault samples that breached.
	FalseAlarmRate float64 `json:"false_alarm_rate"`
	// Precision is the fraction of breaching samples that fell inside
	// the fault window (1 when nothing breached).
	Precision float64 `json:"precision"`
	// SuspectRank is the injected machine's 1-based position in the
	// post-fault localization ranking (1 = correctly blamed worst;
	// 0 = absent from the ranking).
	SuspectRank int `json:"suspect_rank"`
	// FaultMeanQ and NormalMeanQ are the average system fitness inside
	// and outside the fault window (the separation that makes detection
	// possible).
	FaultMeanQ  float64 `json:"fault_mean_q"`
	NormalMeanQ float64 `json:"normal_mean_q"`
}

// BudgetQuality aggregates one budget level across the fault kinds.
type BudgetQuality struct {
	// Budget is the sweep label ("full", "25%", ...).
	Budget string `json:"budget"`
	// Pairs is the number of pairs actually modeled after bootstrap;
	// Candidates is the full l(l−1)/2 graph size.
	Pairs      int `json:"pairs"`
	Candidates int `json:"candidates"`
	// Recall is detected fault kinds / total kinds; MeanPrecision and
	// MeanDelaySeconds average over the kinds (detected kinds only for
	// the delay).
	Recall           float64 `json:"recall"`
	MeanPrecision    float64 `json:"mean_precision"`
	MeanDelaySeconds float64 `json:"mean_delay_seconds"`
	// Localized is how many kinds ranked the injected machine worst.
	Localized int            `json:"localized"`
	Faults    []FaultQuality `json:"faults"`
}

// QualityReport is the full sweep, serialized to QUALITY.json.
type QualityReport struct {
	Threshold float64         `json:"threshold"`
	Budgets   []BudgetQuality `json:"budgets"`
}

// RunQuality runs the detection-quality sweep over the given budget
// labels (QualityBudgets when nil). Every run is a deterministic
// function of the labels: fixed simulator seed, fixed fault windows,
// inline scoring.
func RunQuality(budgets []string) (*QualityReport, error) {
	if budgets == nil {
		budgets = QualityBudgets
	}
	rep := &QualityReport{Threshold: QualityThreshold}
	for _, b := range budgets {
		bq := BudgetQuality{Budget: b}
		var delaySum float64
		var detected int
		for _, kind := range qualityFaultKinds {
			fq, pairs, candidates, err := runQualityScenario(b, kind)
			if err != nil {
				return nil, fmt.Errorf("quality %s/%s: %w", b, kind, err)
			}
			bq.Pairs, bq.Candidates = pairs, candidates
			bq.Faults = append(bq.Faults, fq)
			bq.MeanPrecision += fq.Precision / float64(len(qualityFaultKinds))
			if fq.Detected {
				detected++
				delaySum += fq.DetectDelaySeconds
			}
			if fq.SuspectRank == 1 {
				bq.Localized++
			}
		}
		bq.Recall = float64(detected) / float64(len(qualityFaultKinds))
		if detected > 0 {
			bq.MeanDelaySeconds = delaySum / float64(detected)
		}
		rep.Budgets = append(rep.Budgets, bq)
	}
	return rep, nil
}

// RunQualityScenario runs one (budget, fault kind) cell — exported so a
// tier-1 test can assert a single operating point without paying for the
// whole sweep.
func RunQualityScenario(budget string, kind simulator.FaultKind) (FaultQuality, error) {
	fq, _, _, err := runQualityScenario(budget, kind)
	return fq, err
}

func runQualityScenario(budget string, kind simulator.FaultKind) (FaultQuality, int, int, error) {
	fq := FaultQuality{Kind: kind.String()}
	start := timeseries.MonitoringStart
	trainEnd := start.AddDate(0, 0, 2)
	const faultyIdx = 2
	machine := simulator.MachineName("D", faultyIdx)
	fault := simulator.Fault{
		ID: "quality-" + kind.String(), Machine: machine, Kind: kind,
		Start: trainEnd.Add(6 * time.Hour), End: trainEnd.Add(9 * time.Hour),
	}
	ds, truth, err := simulator.Generate(simulator.GroupConfig{
		Name: "D", Machines: 4, Days: 3, Seed: 11,
		Faults: []simulator.Fault{fault},
	})
	if err != nil {
		return fq, 0, 0, err
	}
	selected := SelectMeasurements(ds, start, trainEnd, SelectionCriteria{Max: 16, MinCV: 0.01})
	if len(selected) < 2 {
		return fq, 0, 0, fmt.Errorf("variance filter kept %d measurements", len(selected))
	}
	watched := Subset(ds, selected)

	mcfg := mcorr.ManagerConfig{
		Model: mcorr.ModelConfig{Adaptive: true, Grid: mcorr.GridConfig{MaxIntervals: 12}},
	}
	var opts []mcorr.MonitorOption
	if budget != "full" {
		n, err := mcorr.ParsePairBudget(budget, len(selected))
		if err != nil {
			return fq, 0, 0, err
		}
		opts = append(opts, mcorr.WithPairBudget(n))
	}
	mon, err := mcorr.NewMonitor(watched.Slice(start, trainEnd), mcfg, opts...)
	if err != nil {
		return fq, 0, 0, err
	}
	defer mon.Close()
	fleet := mon.Fleet()

	candidates := len(selected) * (len(selected) - 1) / 2
	pairs := len(fleet.Pairs())

	// Stream the faulty day through an hour past the fault; reset the
	// localization accumulators at fault start so the machine ranking
	// reflects the incident window, not the healthy morning.
	end := fault.End.Add(time.Hour)
	var reports []mcorr.StepReport
	for tm := trainEnd; tm.Before(end); tm = tm.Add(timeseries.SampleStep) {
		if tm.Equal(fault.Start) {
			fleet.ResetAccumulators()
		}
		var batch []mcorr.Sample
		for _, id := range selected {
			s := watched.Get(id)
			if i, ok := s.IndexOf(tm); ok {
				batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
			}
		}
		rs, err := mon.Ingest(batch...)
		if err != nil {
			return fq, 0, 0, err
		}
		reports = append(reports, rs...)
	}

	timeline := SystemTimeline(reports)
	m := EvaluateDetection(timeline, truth, QualityThreshold)
	fq.Detected = m.Detected > 0
	fq.DetectDelaySeconds = m.MeanDelay.Seconds()
	fq.FalseAlarmRate = m.FalseAlarmRate
	fq.FaultMeanQ = m.FaultMean
	fq.NormalMeanQ = m.NormalMean

	// Sample-level precision: what fraction of alarms pointed at the
	// fault window?
	var truePos, falsePos int
	for _, s := range timeline {
		if s.Score >= QualityThreshold {
			continue
		}
		if fault.ActiveAt(s.Time) {
			truePos++
		} else {
			falsePos++
		}
	}
	fq.Precision = 1
	if truePos+falsePos > 0 {
		fq.Precision = float64(truePos) / float64(truePos+falsePos)
	}

	for i, ms := range fleet.Localize().Machines {
		if ms.Machine == machine {
			fq.SuspectRank = i + 1
			break
		}
	}
	return fq, pairs, candidates, nil
}

// WriteQualityJSON serializes the report deterministically (struct
// order, indented) for QUALITY.json and the CI artifact.
func WriteQualityJSON(w io.Writer, rep *QualityReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// QualityTable renders the sweep as the budget-tuning table.
func QualityTable(rep *QualityReport) *Table {
	t := &Table{
		Title:   "Detection quality vs pair budget",
		Columns: []string{"budget", "pairs", "kind", "detected", "delay", "precision", "suspect rank"},
		Notes: []string{
			fmt.Sprintf("alarm threshold: system Q < %.2f", rep.Threshold),
			"suspect rank 1 = injected machine blamed worst during the fault window",
		},
	}
	for _, bq := range rep.Budgets {
		for _, fq := range bq.Faults {
			det := "no"
			if fq.Detected {
				det = "yes"
			}
			t.AddRow(
				bq.Budget,
				fmt.Sprintf("%d/%d", bq.Pairs, bq.Candidates),
				fq.Kind,
				det,
				(time.Duration(fq.DetectDelaySeconds) * time.Second).String(),
				fmt.Sprintf("%.3f", fq.Precision),
				fmt.Sprintf("%d", fq.SuspectRank),
			)
		}
	}
	return t
}
