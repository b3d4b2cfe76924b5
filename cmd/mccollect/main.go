// Command mccollect is a live end-to-end demo of the monitoring pipeline:
// it starts a multi-tenant collector server, creates one isolated tenant
// per -tenant name (each with its own generated workload and a monitor
// trained on day 1 of it), then replays day 2 through real TCP agents
// (one per machine per tenant) at an accelerated pace while each tenant's
// monitor scores its completed rows and prints alarms.
//
// Usage:
//
//	mccollect -machines 4 -rows 120 -addr 127.0.0.1:0
//	mccollect -tenant alpha,beta -tenant-rate 5000 -ops-addr :6060
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"mcorr"
	"mcorr/internal/cliflags"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// version identifies the build on /metrics (mcorr_build_info); override
// with -ldflags "-X main.version=v1.2.3".
var version = "dev"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mccollect:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		machines = flag.Int("machines", 4, "simulated machines / agents per tenant")
		rows     = flag.Int("rows", 120, "monitoring rows to stream")
		addr     = flag.String("addr", "127.0.0.1:0", "collector listen address")
		seed     = flag.Int64("seed", 7, "simulation seed (tenant i uses seed+i)")
		opsAddr  = flag.String("ops-addr", "", "serve ops endpoints (/metrics, /healthz, /statusz, /api/v1, /debug/pprof) on this address")
		pace     = flag.Duration("pace", 0, "sleep between streamed rows (lets an ops scraper watch the run)")

		tenantsArg = flag.String("tenant", "default", "comma-separated tenant names; each gets an isolated store, fleet and quotas")
		tenantRate = flag.Float64("tenant-rate", 0, "per-tenant collector ingest rate limit in samples/s (0 = off)")
		tenantMeas = flag.Int("tenant-measurements", 0, "per-tenant distinct-measurement quota (0 = unlimited)")

		dataDir, durability = cliflags.Durability(flag.CommandLine,
			"durable mode: per-tenant WAL + checkpoints under here (tenants/<name>); restart recovers every tenant",
			50, "durable mode: checkpoint a tenant after this many scored rows")

		flowQueue  = flag.Int("flow-queue", 0, "flow control: admission queue depth in batches between handlers and the stores (0 = append inline)")
		shedPolicy = flag.String("shed", "block", "flow control: full-queue policy (block, drop-oldest, reject)")
		agentRate  = flag.Float64("agent-rate", 0, "flow control: per-agent rate limit in samples/s (0 = off)")
		agentBurst = flag.Int("agent-burst", 0, "flow control: per-agent token-bucket burst in samples (0 = auto)")
		writeTO    = flag.Duration("write-timeout", 0, "flow control: ack write deadline (0 = match the read idle timeout)")

		incident     = flag.Bool("incident", true, "run the incident diagnosis engine per tenant (digests under /api/v1/incidents?tenant=<name>)")
		incOpenBelow = flag.Float64("incident-open-below", 0.8, "open an incident when a tenant's system Q stays below this")

		pairBudget, discovery = cliflags.Discovery(flag.CommandLine, "each tenant's")
	)
	flag.Parse()
	mcorr.RegisterBuildInfo(version, 1) // tenants score in this process

	var names []string
	for _, n := range strings.Split(*tenantsArg, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return fmt.Errorf("-tenant names no tenants")
	}

	if *opsAddr != "" {
		ops, err := mcorr.ServeOps(*opsAddr)
		if err != nil {
			return err
		}
		defer ops.Close()
		log.Printf("ops server on http://%s (metrics, healthz, statusz, api/v1, pprof)", ops.Addr())
	}

	var monOpts []mcorr.MonitorOption
	if *incident {
		monOpts = append(monOpts, mcorr.WithDiagnosis(mcorr.DiagnosisConfig{OpenBelow: *incOpenBelow}))
	}
	if *pairBudget != "" {
		// Resolved against the per-tenant measurement count below; the
		// budget string is validated here against a placeholder so typos
		// fail before any tenant is built.
		if _, err := discovery(2); err != nil {
			return err
		}
	}

	durCfg, err := durability("") // the registry derives each tenant's DataDir
	if *dataDir != "" {
		// -fsync is read, and so refused, in durable mode only.
		if err != nil {
			return err
		}
		log.Printf("durable tenants under %s (fsync=%s, checkpoint every %d rows)", *dataDir, durCfg.Fsync, durCfg.CheckpointEvery)
	}

	reg := mcorr.NewTenantRegistry(*dataDir)
	defer reg.Close()

	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	fault := simulator.Fault{
		ID: "live-fault", Machine: simulator.MachineName("L", 1), Metric: "",
		Kind:  simulator.FaultFlapping,
		Start: day1.Add(6 * time.Hour), End: day1.Add(8 * time.Hour),
	}
	var alarms atomic.Int64
	datasets := make(map[string]*timeseries.Dataset, len(names))
	for i, name := range names {
		ds, _, err := simulator.Generate(simulator.GroupConfig{
			Name: "L", Machines: *machines, Days: 2, Seed: *seed + int64(i), Faults: []simulator.Fault{fault},
		})
		if err != nil {
			return err
		}
		datasets[name] = ds
		opts := monOpts
		if *pairBudget != "" {
			disc, err := discovery(ds.Len())
			if err != nil {
				return err
			}
			opts = append(append([]mcorr.MonitorOption{}, monOpts...), mcorr.WithDiscovery(disc))
		}
		log.Printf("tenant %s: training monitor on day 1 (%d measurements)", name, ds.Len())
		t, err := reg.CreateTenant(mcorr.TenantConfig{
			Name:    name,
			History: ds.Slice(timeseries.MonitoringStart, day1),
			Manager: mcorr.ManagerConfig{},
			Quota: mcorr.TenantQuota{
				MaxMeasurements:  *tenantMeas,
				SamplesPerSecond: *tenantRate,
			},
			Durable:    *dataDir != "",
			Durability: durCfg,
			Options:    opts,
			OnReport: func(tenant string, r mcorr.StepReport) {
				marker := ""
				if fault.ActiveAt(r.Time) {
					marker = "  <- ground-truth fault window"
				}
				if r.System < 0.75 {
					alarms.Add(1)
					log.Printf("LOW FITNESS tenant=%s Q=%.3f at %s%s", tenant, r.System, r.Time.Format("15:04"), marker)
				} else if r.Time.Minute() == 0 {
					log.Printf("Q=%.3f tenant=%s at %s%s", r.System, tenant, r.Time.Format("15:04"), marker)
				}
			},
		})
		if err != nil {
			return err
		}
		if df, ok := t.Fleet().(mcorr.DiscoveryFleet); ok {
			admitted, budget, candidates := df.BudgetInfo()
			log.Printf("tenant %s: pair budget: %d admitted of %d candidates (budget %d)", name, admitted, candidates, budget)
		}
		if n := len(t.Recovered()); n > 0 {
			log.Printf("tenant %s: recovered, %d rows re-scored, resuming at %s", name, n, t.Monitor().Cursor().Format(time.RFC3339))
		}
	}

	srv, err := mcorr.NewTenantCollectorServer(reg)
	if err != nil {
		return err
	}
	if *flowQueue > 0 || *agentRate > 0 || *writeTO > 0 {
		policy, err := mcorr.ParseShedPolicy(*shedPolicy)
		if err != nil {
			return err
		}
		srv.SetFlow(mcorr.FlowConfig{
			QueueDepth:   *flowQueue,
			Shed:         policy,
			AgentRate:    *agentRate,
			AgentBurst:   *agentBurst,
			WriteTimeout: *writeTO,
		})
		log.Printf("flow control: queue=%d shed=%s agent-rate=%.0f/s", *flowQueue, policy, *agentRate)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("collector listening on %s (%d tenants: %s)", bound, len(names), strings.Join(names, ", "))

	// One reliable TCP agent per machine per tenant (reconnects with
	// backoff, so a collector blip never loses samples). The hello names
	// the tenant; the server routes each connection's batches to it.
	agents := make(map[string][]*mcorr.ReliableAgent, len(names))
	for _, name := range names {
		list := make([]*mcorr.ReliableAgent, *machines)
		for i := range list {
			agentName := simulator.MachineName("L", i)
			if len(names) > 1 {
				agentName = name + "-" + agentName
			}
			list[i] = mcorr.NewReliableAgent(bound.String(), agentName, mcorr.ReliableConfig{Tenant: name})
			defer list[i].Close()
		}
		agents[name] = list
	}
	hb, err := mcorr.DialCollectorTenant(bound.String(), "heartbeat-probe", names[0])
	if err != nil {
		return err
	}
	defer hb.Close()
	stopHB := hb.StartHeartbeats(2 * time.Second)
	defer stopHB()

	if *rows > timeseries.SamplesPerDay {
		*rows = timeseries.SamplesPerDay
	}
	log.Printf("streaming %d rows of day 2 through %d agents x %d tenants (fault: %s %s-%s)",
		*rows, *machines, len(names), fault.Kind, fault.Start.Format("15:04"), fault.End.Format("15:04"))
	for k := 0; k < *rows; k++ {
		if *pace > 0 {
			time.Sleep(*pace)
		}
		tm := day1.Add(time.Duration(k) * timeseries.SampleStep)
		for _, name := range names {
			ds := datasets[name]
			ids := ds.IDs()
			// Each agent ships its machine's samples for this timestamp;
			// the server stores them in the tenant's store and the
			// tenant's monitor scores each row that completes.
			for i, a := range agents[name] {
				machine := simulator.MachineName("L", i)
				var batch []mcorr.Sample
				for _, id := range ids {
					if id.Machine != machine {
						continue
					}
					s := ds.Get(id)
					if idx, ok := s.IndexOf(tm); ok {
						batch = append(batch, mcorr.Sample{ID: id, Time: tm, Value: s.Values[idx]})
					}
				}
				if err := a.Send(batch); err != nil {
					return fmt.Errorf("tenant %s agent %s: %w", name, machine, err)
				}
			}
			t, _ := reg.Tenant(name)
			if df, ok := t.Fleet().(mcorr.DiscoveryFleet); ok {
				for _, ev := range df.DrainDiscoveryEvents() {
					log.Printf("DISCOVER tenant=%s round=%d admitted=%d evicted=%d pairs=%d",
						name, ev.Round, len(ev.Admitted), len(ev.Evicted), ev.Pairs)
				}
			}
		}
	}
	for _, name := range names {
		t, _ := reg.Tenant(name)
		if err := t.Checkpoint(); err != nil {
			return err
		}
		if diag := t.Diagnosis(); diag != nil {
			for _, d := range diag.Incidents() {
				log.Printf("INCIDENT tenant=%s %s state=%s severity=%s impact=%s suspect=%s candidates=%d",
					name, d.ID, d.State, d.Severity, d.ImpactTime.Format("15:04"), d.Suspect, len(d.Candidates))
			}
		}
	}
	log.Printf("done: %d low-fitness rows flagged; server stats: %+v", alarms.Load(), srv.Stats())
	return nil
}
