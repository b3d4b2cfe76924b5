// Command mcdetect trains the transition-probability model fleet on the
// first part of a monitoring CSV and runs problem determination and
// localization on the rest, printing the system fitness timeline, alarms
// and the machine ranking.
//
// Usage:
//
//	mcdetect -data group.csv -train-days 8 -adaptive -threshold 0.5
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"mcorr"
	"mcorr/internal/alarm"
	"mcorr/internal/cliflags"
	"mcorr/internal/core"
	"mcorr/internal/eval"
	"mcorr/internal/manager"
	"mcorr/internal/obs"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"

	// Registered for the ops surface: one scrape of /metrics shows the
	// whole pipeline's metric schema (collector included), not just the
	// packages this command exercises.
	_ "mcorr/internal/collector"
)

// version identifies the build on /metrics (mcorr_build_info); override
// with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mcdetect:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataPath  = flag.String("data", "", "monitoring CSV (from mcgen)")
		trainDays = flag.Int("train-days", 8, "days of the file used as training history")
		adaptive  = flag.Bool("adaptive", true, "update models online during the test run")
		threshold = flag.Float64("threshold", 0.5, "measurement fitness alarm threshold")
		sysThresh = flag.Float64("system-threshold", 0.8, "system fitness alarm threshold")
		delta     = flag.Float64("delta", 0, "pair transition-probability alarm threshold (0 = off)")
		maxMeas   = flag.Int("max-measurements", 40, "cap on monitored measurements (highest variance kept)")
		holdoff   = flag.Duration("holdoff", time.Hour, "alarm dedup holdoff")
		saveTo    = flag.String("save-models", "", "after the run, save the trained manager (all pair models) to this file")
		loadFrom  = flag.String("load-models", "", "skip training and restore a manager saved by -save-models")
		truthPath = flag.String("truth", "", "ground-truth JSON (from mcgen) to score detection against")
		opsAddr   = flag.String("ops-addr", "", "serve ops endpoints (/metrics, /healthz, /statusz, /debug/pprof) on this address")
		linger    = flag.Duration("ops-linger", 0, "keep the ops server up this long after the run (for scraping final state)")

		shardWorkers = flag.String("shard-workers", "", "comma-separated mcshard control addresses: fan scoring out to networked worker processes, which only this process needs to reach (batch mode; trajectories are bit-identical to in-process runs)")
		printSteps   = flag.Bool("print-steps", false, "batch mode: print one STEP line per scored row, as durable mode does")
		ckptIvl      = flag.Duration("checkpoint-interval", 0, "durable mode: also checkpoint after this much wall time (0 = off)")
		pace         = flag.Duration("pace", 0, "sleep between streamed rows (durable mode, and batch mode with -print-steps)")

		incident     = flag.Bool("incident", false, "run the incident diagnosis engine and print root-cause digests (INCIDENT lines)")
		incOpenBelow = flag.Float64("incident-open-below", 0.8, "open an incident when system Q stays below this")
		incOpenAfter = flag.Int("incident-open-after", 2, "consecutive below-threshold rows before an incident opens (1 = open on first dip)")
		incBreak     = flag.Float64("incident-break", 0.5, "a measurement counts as broken below this Q^a during root-cause analysis")

		pairBudget, discCfg = cliflags.Discovery(flag.CommandLine, "the")
		dataDir, durCfg     = cliflags.Durability(flag.CommandLine,
			"durable mode: keep WAL + checkpoints here and recover from them on restart",
			240, "durable mode: checkpoint after this many scored rows")

		tenantArg = flag.String("tenant", "", "tenant mode: a single tenant name (streams -data as that tenant, durable state under data-dir/tenants/<name>) or name=csv[,name2=csv2,...] for several isolated tenants in one process; STEP/INCIDENT/DISCOVER/PAIRGRAPH lines gain a tenant= suffix (empty = legacy single-system mode)")
	)
	flag.Parse()
	specs, err := parseTenantArg(*tenantArg, *dataPath)
	if err != nil {
		return err
	}
	if specs == nil && *dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	var workers []string
	if *shardWorkers != "" {
		workers = strings.Split(*shardWorkers, ",")
	}
	// The shard count is the networked fleet's: scoring in this process is
	// one manager.
	shardCount := max(1, len(workers))
	obs.RegisterBuildInfo(version, shardCount)
	diagCfg := mcorr.DiagnosisConfig{OpenBelow: *incOpenBelow, OpenAfter: *incOpenAfter, MeasurementBreak: *incBreak}
	if *opsAddr != "" {
		ops, err := obs.ServeOps(*opsAddr)
		if err != nil {
			return err
		}
		defer ops.Close()
		log.Printf("ops server on http://%s (metrics, healthz, statusz, pprof)", ops.Addr())
		if *linger > 0 {
			defer time.Sleep(*linger)
		}
	}
	if *shardWorkers != "" {
		if specs != nil || *dataDir != "" || *loadFrom != "" || *saveTo != "" || *pairBudget != "" {
			return fmt.Errorf("-shard-workers cannot combine with -tenant, -data-dir, -load-models, -save-models or -pair-budget")
		}
	}
	p := runParams{
		trainDays: *trainDays, adaptive: *adaptive,
		threshold: *threshold, sysThresh: *sysThresh, delta: *delta,
		holdoff: *holdoff, maxMeas: *maxMeas,
		dataDir: *dataDir, durCfg: durCfg, interval: *ckptIvl, pace: *pace,
		incident: *incident, incidentCfg: diagCfg,
		pairBudget: *pairBudget, discCfg: discCfg,
	}
	if specs != nil {
		if *loadFrom != "" || *saveTo != "" || *truthPath != "" {
			return fmt.Errorf("-tenant cannot combine with -load-models, -save-models or -truth")
		}
		return runTenants(specs, p)
	}
	ds, err := loadCSV(*dataPath)
	if err != nil {
		return err
	}
	start, trainEnd, end, err := p.window(ds)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		return runDurable(ds, start, trainEnd, end, p)
	}
	mcfg, memory := p.managerConfig()

	var fleet mcorr.Fleet
	var watched *timeseries.Dataset
	if (*loadFrom != "" || *saveTo != "") && *pairBudget != "" {
		return fmt.Errorf("-load-models and -save-models cannot combine with -pair-budget (discovery state persists via -data-dir checkpoints)")
	}
	if *loadFrom != "" {
		mgr, err := loadModels(*loadFrom, mcfg.Sink)
		if err != nil {
			return err
		}
		fleet = mgr
		watched = eval.Subset(ds, mgr.IDs())
		fmt.Printf("restored %d pair models from %s\n", len(mgr.Pairs()), *loadFrom)
	} else {
		if watched, err = p.selectWatched(ds, start, trainEnd); err != nil {
			return err
		}
		l := watched.Len()
		fmt.Printf("training on %s .. %s (%d measurements, %d pairs, %d shards)\n",
			start.Format(time.RFC3339), trainEnd.Format(time.RFC3339), l, l*(l-1)/2, shardCount)
		if *pairBudget != "" {
			dcfg, derr := discCfg(l)
			if derr != nil {
				return derr
			}
			if fleet, err = mcorr.NewDiscoveryFleet(watched.Slice(start, trainEnd), mcfg, dcfg); err == nil {
				printBudget(fleet, "")
			}
		} else if workers != nil {
			fmt.Printf("fanning out to %d networked shard workers\n", len(workers))
			dur, _ := durCfg("") // the workers' cadence is all this mode reads; it opens no WAL
			fleet, err = mcorr.NewShardNetFleet(watched.Slice(start, trainEnd), mcorr.ShardNetConfig{
				Workers:         workers,
				Manager:         mcfg,
				CheckpointEvery: dur.CheckpointEvery,
			})
		} else {
			fleet, err = manager.New(watched.Slice(start, trainEnd), mcfg)
		}
		if err != nil {
			return err
		}
	}

	var diag *mcorr.DiagnosisEngine
	if *incident {
		diag = mcorr.NewDiagnosisEngine(diagCfg, fleet)
	}

	defer fleet.Close()
	fmt.Printf("detecting on %s .. %s (adaptive=%v)\n", trainEnd.Format(time.RFC3339), end.Format(time.RFC3339), *adaptive)
	started := time.Now()
	// One row at a time, as durable mode streams them: each report reaches
	// the diagnosis engine right after it is scored, so a digest's
	// localization reads the accumulators as they stood at that row.
	var reports []mcorr.StepReport
	if err := watched.EachRow(fleet.IDs(), trainEnd, end, func(t time.Time, row []float64) {
		r := fleet.StepValues(t, row)
		if diag != nil {
			diag.Observe(r)
		}
		if *printSteps {
			printStep(r, "")
		}
		reports = append(reports, r)
		if *pace > 0 {
			time.Sleep(*pace)
		}
	}); err != nil {
		return err
	}
	elapsed := time.Since(started)
	printDiscover(fleet, "")

	timeline := eval.SystemTimeline(reports)
	fmt.Printf("\nprocessed %d rows in %v (%v per row)\n", len(reports), elapsed.Round(time.Millisecond),
		(elapsed / time.Duration(max(1, len(reports)))).Round(time.Microsecond))
	fmt.Printf("mean system fitness Q = %.4f\n", fleet.SystemMean())
	if len(timeline) > 0 {
		fmt.Printf("Q timeline: %s\n", eval.Sparkline(eval.Downsample(eval.Scores(timeline), 96), 0, 1))
	}
	lowest := math.Inf(1)
	var lowestAt time.Time
	for _, s := range timeline {
		if s.Score < lowest {
			lowest, lowestAt = s.Score, s.Time
		}
	}
	if !math.IsInf(lowest, 1) {
		fmt.Printf("lowest Q = %.4f at %s\n", lowest, lowestAt.Format(time.RFC3339))
	}

	loc := fleet.Localize()
	fmt.Println("\nmachines ranked by average fitness (worst first):")
	for i, ms := range loc.Machines {
		fmt.Printf("  %2d. %-16s Q=%.4f (%d measurements)\n", i+1, ms.Machine, ms.Score, ms.Measurements)
		if i >= 9 {
			fmt.Printf("  ... %d more\n", len(loc.Machines)-10)
			break
		}
	}
	if *truthPath != "" {
		tf, err := os.Open(*truthPath)
		if err != nil {
			return err
		}
		gt, err := simulator.LoadGroundTruth(tf)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		m := eval.EvaluateDetection(timeline, gt, *sysThresh)
		fmt.Printf("\ndetection vs ground truth (system Q < %.2f): %d/%d events detected, mean delay %v, false-alarm rate %.3f\n",
			*sysThresh, m.Detected, m.Events, m.MeanDelay, m.FalseAlarmRate)
	}

	if worst := worstPairs(fleet, 5); len(worst) > 0 {
		fmt.Println("\nworst links (mean Q^{a,b}, the paper's pair-level drill-down):")
		for _, ps := range worst {
			fmt.Printf("  %-60s Q=%.4f (%d samples)\n", ps.Pair.String(), ps.Score, ps.Samples)
		}
	}
	fmt.Printf("\nalarms: %d (deduped, holdoff %v)\n", memory.Len(), *holdoff)
	printIncidents(diag, "")

	if *saveTo != "" {
		mgr := fleet.(*manager.Manager)
		// The same container as a checkpoint, holding the manager section
		// only: a file from another release is refused by its magic.
		meta := manager.CheckpointMeta{CreatedAt: time.Now().UTC(), Steps: mgr.Steps()}
		if err := manager.WriteCheckpointFile(*saveTo, &meta, func(cw *manager.CheckpointWriter) error {
			return cw.Stream(manager.SectionManager, mgr.Save)
		}); err != nil {
			return err
		}
		fmt.Printf("saved %d pair models to %s\n", len(mgr.Pairs()), *saveTo)
	}
	return nil
}

// loadModels restores the manager a -save-models run wrote.
func loadModels(path string, sink alarm.Sink) (*manager.Manager, error) {
	cr, err := manager.OpenCheckpointFile(path, &manager.CheckpointMeta{})
	if err != nil {
		return nil, err
	}
	defer cr.Close()
	body, err := cr.Section(manager.SectionManager)
	if err != nil {
		return nil, err
	}
	mgr, err := manager.LoadManager(body, sink)
	if err != nil {
		return nil, manager.CorruptCheckpoint(manager.SectionManager, err)
	}
	if err := cr.End(); err != nil {
		mgr.Close()
		return nil, err
	}
	return mgr, nil
}

// worstPairs reads the pair-level drill-down from either fleet shape.
func worstPairs(fleet mcorr.Fleet, k int) []manager.PairScore {
	wp, ok := fleet.(interface{ WorstPairs(int) []manager.PairScore })
	if !ok {
		return nil
	}
	return wp.WorstPairs(k)
}

// runParams carries the flags the modes share: the training window, the
// fleet configuration and — for the two streaming modes — durability,
// diagnosis and discovery.
type runParams struct {
	trainDays int
	adaptive  bool
	threshold float64
	sysThresh float64
	delta     float64
	holdoff   time.Duration
	maxMeas   int
	dataDir   string
	interval  time.Duration
	pace      time.Duration
	incident  bool

	incidentCfg mcorr.DiagnosisConfig
	// pairBudget is the raw -pair-budget value ("" = discovery off);
	// discCfg resolves it against a fleet size (percentages need l).
	pairBudget string
	discCfg    func(l int) (mcorr.DiscoveryConfig, error)
	// durCfg resolves -fsync and -checkpoint-every for a pipeline kept in dir.
	durCfg func(dir string) (mcorr.DurabilityConfig, error)
}

// loadCSV reads a monitoring CSV.
func loadCSV(path string) (*timeseries.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ds, err := timeseries.ReadCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && ds.Len() == 0 {
		err = fmt.Errorf("empty dataset")
	}
	return ds, err
}

// window returns the span of the dataset and the end of its training prefix.
func (p runParams) window(ds *timeseries.Dataset) (start, trainEnd, end time.Time, err error) {
	ids := ds.IDs()
	start, end = ds.Get(ids[0]).Start, ds.Get(ids[0]).End()
	for _, id := range ids {
		s := ds.Get(id)
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End().After(end) {
			end = s.End()
		}
	}
	trainEnd = start.AddDate(0, 0, p.trainDays)
	if !trainEnd.Before(end) {
		err = fmt.Errorf("training window (%d days) covers the whole file", p.trainDays)
	}
	return start, trainEnd, end, err
}

// managerConfig is the fleet configuration over a fresh alarm pipeline:
// deduped alarms are logged to stdout and counted in the memory sink.
func (p runParams) managerConfig() (manager.Config, *alarm.MemorySink) {
	memory := &alarm.MemorySink{}
	logSink := &alarm.LogSink{Logger: log.New(os.Stdout, "ALARM ", 0)}
	return manager.Config{
		Model:                core.Config{Adaptive: p.adaptive, Grid: core.GridConfig{MaxIntervals: 12}},
		MeasurementThreshold: p.threshold,
		SystemThreshold:      p.sysThresh,
		ProbDelta:            p.delta,
		Sink:                 alarm.NewDeduper(alarm.Multi{memory, logSink}, p.holdoff),
		TrackPairMeans:       true,
	}, memory
}

// selectWatched keeps the highest-variance measurements of the training
// window, up to -max-measurements.
func (p runParams) selectWatched(ds *timeseries.Dataset, start, trainEnd time.Time) (*timeseries.Dataset, error) {
	selected := eval.SelectMeasurements(ds, start, trainEnd, eval.SelectionCriteria{Max: p.maxMeas, MinCV: 0.01})
	if len(selected) < 2 {
		return nil, fmt.Errorf("fewer than 2 measurements pass the variance filter")
	}
	return eval.Subset(ds, selected), nil
}

// durability resolves the -data-dir flag family for a pipeline kept in dir.
func (p runParams) durability(dir string) (mcorr.DurabilityConfig, error) {
	cfg, err := p.durCfg(dir)
	cfg.CheckpointInterval = p.interval
	return cfg, err
}

// source decides what a streaming pipeline kept in dir ("" = in memory)
// starts from and with which monitor options. A checkpoint in dir wins: the
// history comes back nil, and the checkpoint's discovery config is
// authoritative (the -pair-budget value then only marks discovery as
// enabled, so percentages resolve against the measurement cap rather than
// the not-yet-known fleet). Otherwise the history is the training window of
// the selected measurements, announced with a "training on" line ending in
// where.
func (p runParams) source(ds *timeseries.Dataset, start, trainEnd time.Time, dir, where string) (*timeseries.Dataset, []mcorr.MonitorOption, error) {
	var opts []mcorr.MonitorOption
	if p.incident {
		opts = append(opts, mcorr.WithDiagnosis(p.incidentCfg))
	}
	var history *timeseries.Dataset
	l := p.maxMeas
	if dir == "" || !mcorr.HasCheckpoint(dir) {
		watched, err := p.selectWatched(ds, start, trainEnd)
		if err != nil {
			return nil, nil, err
		}
		history, l = watched.Slice(start, trainEnd), watched.Len()
		fmt.Printf("training on %s .. %s (%d measurements)%s\n",
			start.Format(time.RFC3339), trainEnd.Format(time.RFC3339), l, where)
	}
	if p.pairBudget != "" {
		disc, err := p.discCfg(l)
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, mcorr.WithDiscovery(disc))
	}
	return history, opts, nil
}

// pipeline is what the streaming loop drives: the *mcorr.Monitor of the
// legacy -data-dir mode or a *mcorr.Tenant.
type pipeline interface {
	Fleet() mcorr.Fleet
	Diagnosis() *mcorr.DiagnosisEngine
	Ingest(samples ...mcorr.Sample) ([]mcorr.StepReport, error)
	FlushUpTo(deadline time.Time) ([]mcorr.StepReport, error)
}

// streamRow feeds the pipeline the samples the CSV holds at t, forces the
// row so a gap cannot stall the stream, and prints what was scored.
func streamRow(pl pipeline, ds *timeseries.Dataset, t time.Time, step time.Duration, tenant string) error {
	var batch []mcorr.Sample
	for _, id := range pl.Fleet().IDs() {
		s := ds.Get(id)
		if s == nil {
			continue
		}
		if idx, ok := s.IndexOf(t); ok {
			batch = append(batch, mcorr.Sample{ID: id, Time: t, Value: s.Values[idx]})
		}
	}
	reports, err := pl.Ingest(batch...)
	if err != nil {
		return err
	}
	forced, err := pl.FlushUpTo(t.Add(step))
	if err != nil {
		return err
	}
	printSteps(append(reports, forced...), tenant)
	printDiscover(pl.Fleet(), tenant)
	return nil
}

// printSummary closes a streaming run: the fitness mean, the worst machine,
// the alarm count (legacy mode only), incidents and the pair-graph hash.
func printSummary(pl pipeline, tenant string, alarms *alarm.MemorySink) {
	fleet := pl.Fleet()
	fmt.Printf("mean system fitness Q = %.4f over %d rows%s\n", fleet.SystemMean(), fleet.Steps(), tenantSuffix(tenant))
	if loc := fleet.Localize(); len(loc.Machines) > 0 {
		fmt.Printf("worst machine: %s Q=%.4f%s\n", loc.Machines[0].Machine, loc.Machines[0].Score, tenantSuffix(tenant))
	}
	if alarms != nil {
		fmt.Printf("alarms: %d\n", alarms.Len())
	}
	printIncidents(pl.Diagnosis(), tenant)
	if _, ok := fleet.(mcorr.DiscoveryFleet); ok {
		printPairGraph(fleet.Pairs(), tenant)
	}
}

// printRecovery is the banner of a pipeline recovered from dir.
func printRecovery(dir string, mon *mcorr.Monitor, rescored int, tenant string) {
	applied, skipped := mon.RecoveryStats()
	fmt.Printf("recovered from %s: %d WAL samples replayed (%d skipped), %d rows re-scored, resuming at %s%s\n",
		dir, applied, skipped, rescored, mon.Cursor().Format(time.RFC3339), tenantSuffix(tenant))
}

// printBudget reports the discovery tier's occupancy, when there is one.
func printBudget(f mcorr.Fleet, tenant string) {
	if df, ok := f.(mcorr.DiscoveryFleet); ok {
		admitted, budget, candidates := df.BudgetInfo()
		fmt.Printf("pair budget: %d admitted of %d candidates (budget %d)%s\n", admitted, candidates, budget, tenantSuffix(tenant))
	}
}

// runDurable is the crash-safe streaming mode: a durable monitor fed row by
// row from the CSV, with every acked batch in the WAL before the next row
// and automatic checkpoints on the configured cadence. Restarted with the
// same -data-dir it recovers from checkpoint + WAL replay and continues
// where it left off; the per-step fitness lines (STEP <time> Q=<score>)
// are bit-identical to an uninterrupted run.
func runDurable(ds *timeseries.Dataset, start, trainEnd, end time.Time, p runParams) error {
	dcfg, err := p.durability(p.dataDir)
	if err != nil {
		return err
	}
	mcfg, memory := p.managerConfig()
	history, opts, err := p.source(ds, start, trainEnd, p.dataDir, ", durable state in "+p.dataDir)
	if err != nil {
		return err
	}
	var mon *mcorr.Monitor
	if history == nil {
		var recovered []mcorr.StepReport
		if mon, recovered, err = mcorr.OpenDurableMonitor(dcfg, mcfg.Sink, opts...); err != nil {
			return err
		}
		printRecovery(p.dataDir, mon, len(recovered), "")
		printSteps(recovered, "")
	} else {
		if mon, err = mcorr.NewDurableMonitor(history, mcfg, dcfg, opts...); err != nil {
			return err
		}
		printBudget(mon.Fleet(), "")
	}
	step := ds.Get(ds.IDs()[0]).Step
	for t := mon.Cursor(); t.Before(end); t = t.Add(step) {
		if p.pace > 0 {
			time.Sleep(p.pace)
		}
		if err := streamRow(mon, ds, t, step, ""); err != nil {
			return err
		}
	}
	printSummary(mon, "", memory)
	return mon.Close()
}

// tenantSuffix is what tenant mode appends to every deterministic line
// (STEP, DISCOVER, INCIDENT, PAIRGRAPH): " tenant=<name>", and nothing in
// the single-system modes, whose lines the print functions below leave
// byte for byte as they were before tenants existed.
func tenantSuffix(tenant string) string {
	if tenant == "" {
		return ""
	}
	return " tenant=" + tenant
}

// printDiscover emits one deterministic line per discovery round that
// changed the pair graph. Like STEP lines, these compare bit for bit
// between an uninterrupted durable run and a crash-recovered one.
func printDiscover(f mcorr.Fleet, tenant string) {
	df, ok := f.(mcorr.DiscoveryFleet)
	if !ok {
		return
	}
	for _, ev := range df.DrainDiscoveryEvents() {
		fmt.Printf("DISCOVER %s round=%d admitted=%d evicted=%d pairs=%d%s\n",
			ev.Time.Format(time.RFC3339), ev.Round, len(ev.Admitted), len(ev.Evicted), ev.Pairs, tenantSuffix(tenant))
	}
}

// printPairGraph fingerprints the final pair graph: the FNV-64a hash of
// the canonically sorted pair list. The crash-recovery test compares the
// line against an uninterrupted baseline to prove both runs converged on
// the identical graph.
func printPairGraph(pairs []mcorr.Pair, tenant string) {
	manager.SortPairs(pairs)
	h := fnv.New64a()
	for _, p := range pairs {
		h.Write([]byte(p.String()))
		h.Write([]byte{'\n'})
	}
	fmt.Printf("PAIRGRAPH pairs=%d hash=%016x%s\n", len(pairs), h.Sum64(), tenantSuffix(tenant))
}

// printIncidents emits one deterministic line per incident digest. Like
// the STEP lines, these compare bit for bit between an uninterrupted
// durable run and one recovered after a crash: incident IDs, impact
// times and rankings are functions of the replayed trajectory.
func printIncidents(eng *mcorr.DiagnosisEngine, tenant string) {
	if eng == nil {
		return
	}
	digests := eng.Incidents()
	fmt.Printf("incidents: %d%s\n", len(digests), tenantSuffix(tenant))
	for _, d := range digests {
		suspect, top := d.Suspect, "-"
		if suspect == "" {
			suspect = "-"
		}
		if len(d.Candidates) > 0 {
			top = d.Candidates[0].Measurement
		}
		fmt.Printf("INCIDENT %s state=%s severity=%s impact=%s low=%.17g broken=%d suspect=%s top=%s%s\n",
			d.ID, d.State, d.Severity, d.ImpactTime.Format(time.RFC3339), d.SystemLow, d.Broken, suspect, top, tenantSuffix(tenant))
	}
}

// printStep emits one row's fitness with full float precision; the crash-
// recovery test compares these lines bit for bit across runs.
func printStep(r mcorr.StepReport, tenant string) {
	fmt.Printf("STEP %s Q=%.17g scored=%d%s\n", r.Time.Format(time.RFC3339), r.System, r.ScoredPairs, tenantSuffix(tenant))
}

func printSteps(reports []mcorr.StepReport, tenant string) {
	for _, r := range reports {
		printStep(r, tenant)
	}
}

// tenantSpec names one tenant and the monitoring CSV it streams.
type tenantSpec struct {
	name string
	csv  string
}

// parseTenantArg resolves -tenant: empty = legacy mode (nil specs); a
// bare name list streams -data into each named tenant; the name=csv form
// gives every tenant its own file.
func parseTenantArg(arg, dataPath string) ([]tenantSpec, error) {
	if arg == "" {
		return nil, nil
	}
	var specs []tenantSpec
	seen := map[string]bool{}
	for _, p := range strings.Split(arg, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, csv, hasCSV := strings.Cut(p, "=")
		if !hasCSV {
			csv = dataPath
		}
		if name == "" || csv == "" {
			return nil, fmt.Errorf("-tenant entry %q: want name or name=csv (with -data set for the bare form)", p)
		}
		if seen[name] {
			return nil, fmt.Errorf("-tenant names %q twice", name)
		}
		seen[name] = true
		specs = append(specs, tenantSpec{name: name, csv: csv})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-tenant names no tenants")
	}
	return specs, nil
}

// tenantRun is one tenant's streaming state inside runTenants.
type tenantRun struct {
	name string
	t    *mcorr.Tenant
	ds   *timeseries.Dataset
	end  time.Time
}

// runTenants is the multi-tenant streaming mode: one isolated tenant per
// spec inside a shared registry, each trained on the first -train-days of
// its CSV (or recovered from data-dir/tenants/<name>) and fed row by row
// on a merged clock. Every deterministic line (STEP, DISCOVER, INCIDENT,
// PAIRGRAPH) carries a tenant= suffix so per-tenant trajectories can be
// compared bit for bit across runs and process layouts.
func runTenants(specs []tenantSpec, p runParams) error {
	dcfg, err := p.durability("") // the registry derives each tenant's DataDir
	if err != nil {
		return err
	}
	reg := mcorr.NewTenantRegistry(p.dataDir)
	defer reg.Close()

	runs := make([]tenantRun, 0, len(specs))
	for _, spec := range specs {
		name, dir := spec.name, ""
		if p.dataDir != "" {
			dir = mcorr.TenantDir(p.dataDir, name)
		}
		ds, err := loadCSV(spec.csv)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		start, trainEnd, end, err := p.window(ds)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		history, opts, err := p.source(ds, start, trainEnd, dir, tenantSuffix(name))
		if err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		mcfg, _ := p.managerConfig()
		t, err := reg.CreateTenant(mcorr.TenantConfig{
			Name:       name,
			History:    history,
			Manager:    mcfg,
			Durable:    dir != "",
			Durability: dcfg,
			Options:    opts,
		})
		if err != nil {
			return err
		}
		if history == nil {
			printSteps(t.Recovered(), name)
			printRecovery(dir, t.Monitor(), len(t.Recovered()), name)
		}
		printBudget(t.Fleet(), name)
		runs = append(runs, tenantRun{name: name, t: t, ds: ds, end: end})
	}

	// Merged clock: every tenant advances through the same timestamps, so
	// a crash interrupts all of them mid-stream rather than one at a time.
	step := runs[0].ds.Get(runs[0].ds.IDs()[0]).Step
	clock, horizon := runs[0].t.Monitor().Cursor(), runs[0].end
	for _, rs := range runs {
		if c := rs.t.Monitor().Cursor(); c.Before(clock) {
			clock = c
		}
		if rs.end.After(horizon) {
			horizon = rs.end
		}
	}
	for tm := clock; tm.Before(horizon); tm = tm.Add(step) {
		if p.pace > 0 {
			time.Sleep(p.pace)
		}
		for _, rs := range runs {
			if tm.Before(rs.t.Monitor().Cursor()) || !tm.Before(rs.end) {
				continue
			}
			if err := streamRow(rs.t, rs.ds, tm, step, rs.name); err != nil {
				return fmt.Errorf("tenant %s: %w", rs.name, err)
			}
		}
	}

	for _, rs := range runs {
		printSummary(rs.t, rs.name, nil)
	}
	return reg.Close()
}
