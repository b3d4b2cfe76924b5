package main

import (
	"fmt"
	"math/rand"
	"time"

	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

// workload is one set of inputs and the pipeline shape they run through.
type workload struct {
	name string
	why  string
	// machines is the fleet size; every machine carries the simulator's
	// 8 standard metrics, so l = 8·machines.
	machines int
	// budget is the discovery tier's pair budget; 0 scores the full
	// l(l−1)/2 graph with discovery off.
	budget int
	// shardnet scores pre-built rows through the networked fabric instead
	// of ingesting them through a tenant.
	shardnet bool
	// mixed adds correlate queries, forced checkpoints and a recovery
	// beside the ingest.
	mixed bool
	// cycleSeconds is how long one 480-row input cycle takes on the 2-core
	// box the numbers were first taken on. It only turns --seconds into a
	// whole number of cycles (cyclesFor).
	cycleSeconds float64
	// enforceFault fails the run when the injected fault opens no
	// incident on the right machine (full-graph workloads only: under a
	// pair budget QUALITY.json already shows recall 0.33).
	enforceFault bool
}

var workloads = []workload{
	{name: "dense48", machines: 6, cycleSeconds: 0.55, enforceFault: true,
		why: "l=48, full graph of 1128 pairs, durable, diagnosis on: scoring is ~80% of a row's time and the ingest path ~15%"},
	{name: "wide600", machines: 75, budget: 300, cycleSeconds: 0.50,
		why: "l=600 under a 300-pair budget: row assembly, wire, tsdb, WAL and discovery take ~70% of a row's time and scoring under 30%, the mirror image of dense48"},
	{name: "shardnet48", machines: 6, shardnet: true, cycleSeconds: 0.70, enforceFault: true,
		why: "dense48's inputs and fleet scored by Coordinator.Step over two loopback shard workers: the only place a shardnet change shows; must match dense48 bit for bit"},
	{name: "mixed-rw", machines: 12, budget: 600, mixed: true, cycleSeconds: 0.42,
		why: "l=96, 600 pairs: ingest beside correlate queries every 20 ms, three forced checkpoints and a recovery, so a tsdb or checkpoint change that helps writes and costs reads shows"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// fleetSeed is the simulator seed of every workload's fleet. A
	// different simulator seed is a different fleet, not another sample
	// of the same one: across seeds 1..10 the trained models differ by
	// ±13% in cells and the per-row scoring cost by ±17%. The fleet and
	// its training day are therefore part of the workload, and --seed
	// draws what a re-run of the same fleet would change: the measurement
	// noise on every streamed sample and the machine that fails.
	fleetSeed = 9
	// jitterSigma is the relative measurement noise --seed adds to every
	// sample of the input cycle. The training day is left alone: noise on
	// it moves the trained grids and the discovery tier's admitted set,
	// and with them the cost of a row by several percent between seeds
	// (one wide600 seed ran 12–17% slower than its neighbours, twice).
	// On the streamed rows alone, 0.2% moves the re-scored pairs a row by
	// ±0.4% across seeds.
	jitterSigma = 0.002
	// cycleRows is the input cycle: two simulated days, replayed with
	// advancing timestamps. A 5-day cycle keeps adaptive grid growth
	// going for ~6000 rows (throughput climbs 470 → 790 rows/s); two
	// days settle within two or three passes.
	cycleRows = 2 * timeseries.SamplesPerDay
	// faultRows is the length of the injected flapping fault and faultAt
	// the cycle position it starts at: 09:00 of the cycle's first day.
	// Flapping drops Q on alternate rows, and an incident needs two in a
	// row below 0.8; against the morning ramp every machine and every
	// seed tried opens one (12 of 12), later in the day most do not.
	faultRows = 40
	faultAt   = 90
	group     = "L"
)

// input is one workload's generated data: the training day, one clean
// input cycle and the same cycle with the fault in it.
type input struct {
	ids     []timeseries.MeasurementID
	history *timeseries.Dataset
	clean   [][]float64 // [cycleRows][l]
	faulty  [][]float64
	start   time.Time // time of row 0: the day after the training day

	faultMachine string
	// faultCycle is the one pass of the cycle that replays faulty; the
	// run sets it to the first measured cycle once warm-up is over.
	faultCycle int

	genS float64 // time spent generating, part of setup_s
}

// generate builds the workload's input from the seed. The same seed gives
// the same input.
func generate(w workload, seed int64) (*input, error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	in := &input{
		start:        timeseries.MonitoringStart.AddDate(0, 0, 1),
		faultMachine: simulator.MachineName(group, rng.Intn(w.machines)),
		faultCycle:   -1,
	}
	faultStart := in.start.Add(faultAt * timeseries.SampleStep)
	cfg := simulator.GroupConfig{Name: group, Machines: w.machines, Days: 1 + cycleRows/timeseries.SamplesPerDay, Seed: fleetSeed}
	clean, _, err := simulator.Generate(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Faults = []simulator.Fault{{
		ID: "bench-fault", Machine: in.faultMachine, Kind: simulator.FaultFlapping,
		Start: faultStart, End: faultStart.Add(faultRows * timeseries.SampleStep),
	}}
	faulty, _, err := simulator.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in.ids = clean.IDs()
	if l, want := len(in.ids), len(simulator.AllMetrics)*w.machines; l != want {
		return nil, fmt.Errorf("%s: generated l=%d, want %d", w.name, l, want)
	}
	// One jitter factor per streamed sample, applied to both traces so
	// they differ only inside the fault window.
	total := timeseries.SamplesPerDay + cycleRows
	for _, id := range in.ids {
		c, f := clean.Get(id), faulty.Get(id)
		if c.Len() != total || f.Len() != total {
			return nil, fmt.Errorf("%s: series %s has %d/%d samples, want %d", w.name, id, c.Len(), f.Len(), total)
		}
		for i := timeseries.SamplesPerDay; i < total; i++ {
			j := 1 + jitterSigma*rng.NormFloat64()
			c.Values[i] *= j
			f.Values[i] *= j
		}
	}
	in.history = clean.Slice(timeseries.MonitoringStart, in.start)
	in.clean = cycleValues(clean, in.ids)
	in.faulty = cycleValues(faulty, in.ids)
	in.genS = time.Since(t0).Seconds()
	return in, nil
}

func cycleValues(ds *timeseries.Dataset, ids []timeseries.MeasurementID) [][]float64 {
	vals := make([][]float64, cycleRows)
	for k := range vals {
		vals[k] = make([]float64, len(ids))
	}
	for i, id := range ids {
		v := ds.Get(id).Values[timeseries.SamplesPerDay:]
		for k := range vals {
			vals[k][i] = v[k]
		}
	}
	return vals
}

// values returns row k's measurements in ids order. Rows replay the
// cycle for ever; only timestamps advance.
func (in *input) values(k int) []float64 {
	if k/cycleRows == in.faultCycle {
		return in.faulty[k%cycleRows]
	}
	return in.clean[k%cycleRows]
}

func (in *input) time(k int) time.Time {
	return in.start.Add(time.Duration(k) * timeseries.SampleStep)
}

// faultWindow is the time range of the injected fault once faultCycle is
// set, widened by the few rows an incident needs to open.
func (in *input) faultWindow() (from, to time.Time) {
	first := in.faultCycle*cycleRows + faultAt
	return in.time(first), in.time(first + faultRows + 8)
}

// rowValues keys one row's measurements by id, the form Monitor.nextRow
// hands them to the fleet in.
func (in *input) rowValues(vals []float64) map[timeseries.MeasurementID]float64 {
	m := make(map[timeseries.MeasurementID]float64, len(in.ids))
	for i, v := range vals {
		m[in.ids[i]] = v
	}
	return m
}

func (in *input) row(k int) manager.Row {
	return manager.Row{Time: in.time(k), Values: in.rowValues(in.values(k))}
}

// frames splits a row between two agents: one frame each, the first half
// of ids on agent 0. fill writes row k into them.
type frames [2][]tsdb.Sample

func (in *input) newFrames() frames {
	half := len(in.ids) / 2
	var f frames
	for i, id := range in.ids {
		f[i/half] = append(f[i/half], tsdb.Sample{ID: id})
	}
	return f
}

func (in *input) fill(f frames, k int) {
	tm, vals := in.time(k), in.values(k)
	i := 0
	for a := range f {
		for j := range f[a] {
			f[a][j].Time, f[a][j].Value = tm, vals[i]
			i++
		}
	}
}
