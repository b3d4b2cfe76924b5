package mcorr_test

import (
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/eval"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// TestDiagnosisBlamesInjectedFault is the incident-layer acceptance test:
// for several simulator fault kinds, train a monitor on clean days, run
// the faulty day through it with diagnosis attached, and require the
// incident digest's top root-cause candidate to sit on the machine the
// fault was injected into.
func TestDiagnosisBlamesInjectedFault(t *testing.T) {
	start := timeseries.MonitoringStart
	trainEnd := start.AddDate(0, 0, 2)
	const faultyIdx = 2
	scenarios := []struct {
		name string
		kind simulator.FaultKind
	}{
		{"flapping", simulator.FaultFlapping},
		{"decoupled-spike", simulator.FaultDecoupledSpike},
		{"correlation-break", simulator.FaultCorrelationBreak},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			machine := simulator.MachineName("D", faultyIdx)
			fault := simulator.Fault{
				ID: "e2e-" + sc.name, Machine: machine, Kind: sc.kind,
				Start: trainEnd.Add(6 * time.Hour), End: trainEnd.Add(9 * time.Hour),
			}
			ds, _, err := simulator.Generate(simulator.GroupConfig{
				Name: "D", Machines: 4, Days: 3, Seed: 11,
				Faults: []simulator.Fault{fault},
			})
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			// The mcdetect pipeline's selection step: keep the measurements
			// with real signal, drop near-constant metrics whose models
			// never stabilize.
			selected := eval.SelectMeasurements(ds, start, trainEnd, eval.SelectionCriteria{Max: 16, MinCV: 0.01})
			if len(selected) < 2 {
				t.Fatalf("variance filter kept %d measurements", len(selected))
			}
			watched := eval.Subset(ds, selected)
			// Adaptive models keep the healthy baseline calibrated across days
			// (system Q stays >0.9 away from the fault), but they also absorb
			// a fault within a couple of rows — so open on the first
			// below-threshold row instead of debouncing.
			mon, err := mcorr.NewMonitor(watched.Slice(start, trainEnd),
				mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true, Grid: mcorr.GridConfig{MaxIntervals: 12}}},
				mcorr.WithDiagnosis(mcorr.DiagnosisConfig{OpenAfter: 1}))
			if err != nil {
				t.Fatalf("NewMonitor: %v", err)
			}
			defer mon.Close()
			diag := mon.Diagnosis()
			if diag == nil {
				t.Fatal("Diagnosis() = nil despite WithDiagnosis")
			}

			// Stream the faulty day up to an hour past the fault window.
			end := fault.End.Add(time.Hour)
			for tm := trainEnd; tm.Before(end); tm = tm.Add(timeseries.SampleStep) {
				var batch []mcorr.Sample
				for _, id := range selected {
					s := watched.Get(id)
					if i, ok := s.IndexOf(tm); ok {
						batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
					}
				}
				if _, err := mon.Ingest(batch...); err != nil {
					t.Fatalf("Ingest at %v: %v", tm, err)
				}
			}

			incs := diag.Incidents()
			if len(incs) == 0 {
				t.Fatalf("no incident opened for %s on %s", sc.kind, machine)
			}
			// Judge the incident that covers the fault window (warm-up may
			// produce an unrelated earlier one).
			var best *mcorr.IncidentDigest
			for i := range incs {
				d := &incs[i]
				if d.ImpactTime.Before(fault.End) && !d.ImpactTime.Before(fault.Start.Add(-time.Hour)) {
					if best == nil || d.Broken > best.Broken {
						best = d
					}
				}
			}
			if best == nil {
				t.Fatalf("no incident with impact near the fault window %v..%v; got %+v",
					fault.Start, fault.End, incs)
			}
			if len(best.Candidates) == 0 {
				t.Fatalf("incident %s has no candidates: %+v", best.ID, best)
			}
			if got := best.Candidates[0].Machine; got != machine {
				t.Errorf("top candidate on %s, want injected machine %s\ncandidates: %+v",
					got, machine, best.Candidates)
			}
			if best.Suspect != machine {
				t.Errorf("Suspect = %s, want %s", best.Suspect, machine)
			}
			if best.Severity == "" || len(best.Rings) == 0 || len(best.Chain) == 0 {
				t.Errorf("digest incomplete: severity=%q rings=%d chain=%d",
					best.Severity, len(best.Rings), len(best.Chain))
			}
		})
	}
}
