package mcorr_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"mcorr"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

func TestTrainModelFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	history := make([]mcorr.Point, 2000)
	x := 50.0
	for i := range history {
		x += rng.NormFloat64() * 2
		if x < 0 {
			x = 0
		}
		if x > 100 {
			x = 100
		}
		history[i] = mcorr.Point{X: x, Y: 2*x + rng.NormFloat64()*3}
	}
	model, err := mcorr.TrainModel(history, mcorr.ModelConfig{Adaptive: true})
	if err != nil {
		t.Fatalf("TrainModel: %v", err)
	}
	model.Step(mcorr.Point{X: 50, Y: 100})
	res := model.Step(mcorr.Point{X: 51, Y: 102})
	if !res.Scored || res.Fitness <= 0 {
		t.Errorf("facade Step = %+v", res)
	}
}

func TestMonitorScoresCompleteRows(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "F", Machines: 2, Days: 2, Seed: 23,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mon, err := mcorr.NewMonitor(ds.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	if mon.Manager() == nil {
		t.Fatal("Manager accessor nil")
	}

	// Stream the second day sample row by sample row.
	ids := ds.IDs()
	var reports []mcorr.StepReport
	for k := 0; k < 20; k++ {
		tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
		var batch []mcorr.Sample
		for _, id := range ids {
			s := ds.Get(id)
			i, ok := s.IndexOf(tm)
			if !ok {
				t.Fatalf("missing sample at %v", tm)
			}
			batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[i]})
		}
		rep, err := mon.Ingest(batch...)
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		reports = append(reports, rep...)
	}
	if len(reports) != 20 {
		t.Fatalf("scored rows = %d, want 20", len(reports))
	}
	// After warm-up, system fitness should be high and finite.
	var sum float64
	var n int
	for _, r := range reports[1:] {
		if !math.IsNaN(r.System) {
			sum += r.System
			n++
		}
	}
	if n == 0 || sum/float64(n) < 0.7 {
		t.Errorf("streaming system fitness = %.3f over %d rows", sum/float64(n), n)
	}
}

func TestMonitorPartialRowsWaitThenFlush(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "F", Machines: 2, Days: 2, Seed: 29,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mon, err := mcorr.NewMonitor(ds.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	ids := ds.IDs()
	// Send only the first measurement's sample: the row is incomplete, so
	// nothing is scored yet.
	s0 := ds.Get(ids[0])
	i, _ := s0.IndexOf(day1)
	rep, err := mon.Ingest(mcorr.Sample{ID: ids[0], Time: day1, Value: s0.Values[i]})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(rep) != 0 {
		t.Errorf("incomplete row should not be scored, got %d reports", len(rep))
	}
	// Force it: FlushUpTo scores the partial row (links with gaps reset).
	forced, err := mon.FlushUpTo(day1.Add(timeseries.SampleStep))
	if err != nil {
		t.Fatalf("FlushUpTo: %v", err)
	}
	if len(forced) != 1 {
		t.Fatalf("FlushUpTo scored %d rows", len(forced))
	}
	if forced[0].ScoredPairs != 0 {
		t.Errorf("first-ever row cannot score pairs, got %d", forced[0].ScoredPairs)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := mcorr.NewMonitor(mcorr.NewDataset(), mcorr.ManagerConfig{}); err == nil {
		t.Error("empty history: want error")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := mcorr.NewStore(time.Minute, 10); err != nil {
		t.Errorf("NewStore: %v", err)
	}
	if _, err := mcorr.NewSeries(mcorr.MeasurementID{Machine: "m", Metric: "x"}, time.Now(), time.Minute); err != nil {
		t.Errorf("NewSeries: %v", err)
	}
	sink := mcorr.NewChannelSink(4)
	dedup := mcorr.NewDeduper(sink, time.Hour)
	dedup.Publish(mcorr.Alarm{Time: time.Now(), Severity: mcorr.SeverityInfo, Scope: mcorr.ScopeSystem})
	if len(sink.C) != 1 {
		t.Error("facade alarm plumbing broken")
	}
	store, _ := mcorr.NewStore(time.Minute, 0)
	srv, err := mcorr.NewCollectorServer(store)
	if err != nil {
		t.Fatalf("NewCollectorServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	agent, err := mcorr.DialCollector(addr.String(), "facade-test")
	if err != nil {
		t.Fatalf("DialCollector: %v", err)
	}
	defer agent.Close()
	err = agent.Send([]mcorr.Sample{{
		ID:    mcorr.MeasurementID{Machine: "m", Metric: "cpu"},
		Time:  time.Now(),
		Value: 1,
	}})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func TestFacadePersistence(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "F", Machines: 2, Days: 2, Seed: 31,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sub := mcorr.NewDataset()
	for _, id := range ds.IDs()[:6] {
		sub.Add(ds.Get(id))
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	mgr, err := mcorr.NewManager(sub.Slice(timeseries.MonitoringStart, day1), mcorr.ManagerConfig{})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	var buf bytes.Buffer
	if err := mgr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	restored, err := mcorr.LoadManager(&buf, nil)
	if err != nil {
		t.Fatalf("LoadManager: %v", err)
	}
	if len(restored.Pairs()) != len(mgr.Pairs()) {
		t.Errorf("pairs %d != %d", len(restored.Pairs()), len(mgr.Pairs()))
	}
	// Pair-model persistence through the facade.
	ids := sub.IDs()
	model := mgr.Model(ids[0], ids[1])
	buf.Reset()
	if err := model.Save(&buf); err != nil {
		t.Fatalf("model Save: %v", err)
	}
	if _, err := mcorr.LoadModel(&buf); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
}

func TestFacadeReliableAgentAndEscalator(t *testing.T) {
	store, _ := mcorr.NewStore(time.Minute, 0)
	srv, err := mcorr.NewCollectorServer(store)
	if err != nil {
		t.Fatalf("NewCollectorServer: %v", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	ra := mcorr.NewReliableAgent(addr.String(), "facade-rel", mcorr.ReliableConfig{})
	defer ra.Close()
	err = ra.Send([]mcorr.Sample{{
		ID:   mcorr.MeasurementID{Machine: "m", Metric: "cpu"},
		Time: time.Now(), Value: 1,
	}})
	if err != nil {
		t.Fatalf("reliable Send: %v", err)
	}
	sink := mcorr.NewChannelSink(8)
	esc := mcorr.NewEscalator(sink, 2, time.Hour)
	a := mcorr.Alarm{Time: time.Now(), Severity: mcorr.SeverityWarning, Scope: mcorr.ScopeSystem}
	esc.Publish(a)
	esc.Publish(a)
	if len(sink.C) != 3 { // two originals + one escalation
		t.Errorf("escalator published %d alarms, want 3", len(sink.C))
	}
}
