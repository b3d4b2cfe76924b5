// Streaming: the full distributed pipeline on real sockets. Agents (one
// per machine) ship samples over TCP to a collector; the collector lands
// them in the time-series store; a Monitor scores each completed row with
// the adaptive model fleet and prints anomalies as they happen.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"mcorr"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two days of data for three machines; day 2 carries a flapping
	// fault (values stay in range, transitions go wild) from 05:00-07:00.
	day2 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	fault := simulator.Fault{
		ID: "flap", Machine: simulator.MachineName("S", 1), Metric: "",
		Kind:  simulator.FaultFlapping,
		Start: day2.Add(5 * time.Hour), End: day2.Add(7 * time.Hour),
	}
	ds, _, err := simulator.Generate(simulator.GroupConfig{
		Name: "S", Machines: 3, Days: 2, Seed: 99, Faults: []simulator.Fault{fault},
	})
	if err != nil {
		return err
	}

	// Train the monitor on day 1.
	mon, err := mcorr.NewMonitor(ds.Slice(timeseries.MonitoringStart, day2), mcorr.ManagerConfig{})
	if err != nil {
		return err
	}
	defer mon.Close()

	// Stand up the collector and connect one TCP agent per machine.
	store, err := mcorr.NewStore(timeseries.SampleStep, 0)
	if err != nil {
		return err
	}
	srv, err := mcorr.NewCollectorServer(store)
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("collector listening on %s\n", addr)

	machines := ds.Machines()
	agents := make([]*mcorr.CollectorAgent, len(machines))
	for i, m := range machines {
		a, err := mcorr.DialCollector(addr.String(), m)
		if err != nil {
			return err
		}
		defer a.Close()
		agents[i] = a
	}
	fmt.Printf("%d agents connected\n\n", len(agents))

	// Stream the first 10 hours of day 2 (100 rows), one timestamp at a
	// time, through the sockets and into the monitor.
	ids := ds.IDs()
	reader := store.Rows(ids) // the collected rows, one slice each in ids order
	vals := make([]float64, len(ids))
	rows := 100
	anomalies := 0
	for k := 0; k < rows; k++ {
		tm := day2.Add(time.Duration(k) * timeseries.SampleStep)
		for i, m := range machines {
			var batch []mcorr.Sample
			for _, id := range ids {
				if id.Machine != m {
					continue
				}
				s := ds.Get(id)
				if idx, ok := s.IndexOf(tm); ok {
					batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[idx]})
				}
			}
			if err := agents[i].Send(batch); err != nil {
				return err
			}
		}
		// Hand the freshly collected row to the monitor (NaN = no sample).
		reader.ReadRow(tm, vals)
		var samples []mcorr.Sample
		for i, id := range ids {
			if !math.IsNaN(vals[i]) {
				samples = append(samples, mcorr.Sample{ID: id, Time: tm, Value: vals[i]})
			}
		}
		reports, err := mon.Ingest(samples...)
		if err != nil {
			return err
		}
		for _, r := range reports {
			if r.System < 0.6 {
				anomalies++
				inFault := ""
				if fault.ActiveAt(r.Time) {
					inFault = "  (inside the ground-truth fault window)"
				}
				fmt.Printf("%s  Q=%.3f  ANOMALY%s\n", r.Time.Format("15:04"), r.System, inFault)
			}
		}
	}
	st := srv.Stats()
	fmt.Printf("\nstreamed %d rows; server received %d samples over %d connections; %d anomalous rows\n",
		rows, st.Samples, st.TotalConns, anomalies)
	return nil
}
