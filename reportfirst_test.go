package mcorr_test

import (
	"fmt"
	"reflect"
	"testing"

	"mcorr"
	"mcorr/internal/manager"
)

// TestOnReportPrecedesDiscoveryLearning holds a monitor to its row order:
// read, score, diagnose, deliver the report, and only then let the
// discovery tier learn from the row. A tenant whose short rounds and
// near-1 eviction floor change the graph is fed one row per Ingest, and
// its OnReport must see each row while the fleet still holds the pairs
// the row was scored on — on a round-ending row, the previous round's —
// and before Ingest returns. The reports and the discovery events must be
// those of the same discovery fleet stepped with StepValues row by row.
func TestOnReportPrecedesDiscoveryLearning(t *testing.T) {
	history, rows, cfg := propertyFixture(t)
	rows = rows[:180]
	dcfg := mcorr.DiscoveryConfig{
		Budget: 20, TopK: 8, RoundRows: 20, ProbeBatch: 100, MinEffSamples: 3,
		AdmitAbove: 0.1, EvictBelow: 0.99, EvictAfter: 1, Decay: 0.8, Lags: 1,
	}

	ref, err := mcorr.NewDiscoveryFleet(history, cfg, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ids := ref.IDs()
	vals := make([]float64, len(ids))
	var (
		want     []mcorr.StepReport
		scoredOn [][]manager.Pair // the graph each row was scored on
		roundEnd []int            // the rows after which the graph changed
	)
	for k, row := range rows {
		for i, id := range ids {
			vals[i] = row.Values[id]
		}
		scoredOn = append(scoredOn, ref.Pairs())
		want = append(want, ref.StepValues(row.Time, vals))
		if !reflect.DeepEqual(scoredOn[k], ref.Pairs()) {
			roundEnd = append(roundEnd, k)
		}
	}
	wantEvents := ref.DrainDiscoveryEvents()
	if len(roundEnd) == 0 {
		t.Fatal("the graph never changed; the test shows nothing")
	}

	reg := mcorr.NewTenantRegistry("")
	defer reg.Close()
	var (
		fleet mcorr.Fleet
		got   []mcorr.StepReport
		seen  [][]manager.Pair // the graph OnReport saw
	)
	tn, err := reg.CreateTenant(mcorr.TenantConfig{
		Name: "report-first", History: history, Manager: cfg,
		Options: []mcorr.MonitorOption{mcorr.WithDiscovery(dcfg)},
		OnReport: func(_ string, r mcorr.StepReport) {
			got = append(got, r)
			// Pairs takes only the manager's own lock, which scoring has
			// released by now.
			seen = append(seen, fleet.Pairs())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet = tn.Fleet()
	for k, row := range rows {
		batch := make([]mcorr.Sample, len(ids))
		for i, id := range ids {
			batch[i] = mcorr.Sample{ID: id, Time: row.Time, Value: row.Values[id]}
		}
		reports, err := tn.Ingest(batch...)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 1 || len(got) != k+1 {
			t.Fatalf("row %d: Ingest scored %d rows and OnReport had fired %d times, want 1 and %d", k, len(reports), len(got), k+1)
		}
		sameReport(t, fmt.Sprintf("row %d", k), got[k], want[k])
		sameReport(t, fmt.Sprintf("row %d, returned", k), reports[0], want[k])
	}
	for k := range rows {
		if !reflect.DeepEqual(seen[k], scoredOn[k]) {
			t.Errorf("row %d: OnReport saw another graph (%d pairs) than the row was scored on (%d pairs): discovery had learned from the row first", k, len(seen[k]), len(scoredOn[k]))
		}
	}

	events := fleet.(mcorr.DiscoveryFleet).DrainDiscoveryEvents()
	if len(events) != len(wantEvents) {
		t.Fatalf("%d discovery events, want %d", len(events), len(wantEvents))
	}
	for i, ev := range events {
		w := wantEvents[i]
		if !ev.Time.Equal(w.Time) || ev.Round != w.Round || ev.Pairs != w.Pairs ||
			!reflect.DeepEqual(ev.Admitted, w.Admitted) || !reflect.DeepEqual(ev.Evicted, w.Evicted) {
			t.Errorf("event %d: %+v, want %+v", i, ev, w)
		}
	}
}
