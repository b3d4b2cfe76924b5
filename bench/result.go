package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// stamp says where and on what a result was measured, so numbers from
// different machines are never silently mixed.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	FleetSeed  int64  `json:"fleet_seed"`
	Scale      string `json:"scale"`
	L          int    `json:"l"`
	Pairs      int    `json:"pairs"`
	// Rows per phase: warm-up, measured, the WAL tail re-scored by the
	// recovery, and the traced pass.
	WarmRows     int `json:"warm_rows"`
	MeasuredRows int `json:"measured_rows"`
	TailRows     int `json:"tail_rows"`
	TracedRows   int `json:"traced_rows"`
}

// result is everything one run of one workload measured. It is written to
// <out>/result-<workload>.json; the contract line on stdout is cut from it.
type result struct {
	Workload string  `json:"workload"`
	Trace    bool    `json:"trace"`
	Stamp    stamp   `json:"stamp"`
	Metrics  metrics `json:"metrics"`
	// Attempted counts rows sent, queries issued and named checks;
	// Failed the ones that went wrong, each explained in Failures.
	Attempted int      `json:"attempted_ops"`
	Failed    int      `json:"failed_ops"`
	Failures  []string `json:"failures,omitempty"`
	// Checksum folds Float64bits(StepReport.System) over the first
	// minCycles measured cycles; dense48 and shardnet48 must agree.
	Checksum string `json:"checksum"`
	// CycleRates are the measured cycles' rows/s, in order.
	CycleRates []float64 `json:"cycle_rates"`
}

func newResult(w workload, o options) *result {
	return &result{
		Workload: w.name,
		Trace:    o.trace,
		Metrics:  metrics{},
		Stamp: stamp{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPUModel: cpuModel(), Commit: commit(), Seed: o.seed, FleetSeed: fleetSeed, Scale: o.scale.name,
		},
	}
}

// ops counts n operations of which bad failed.
func (r *result) ops(n, bad int, what string) {
	r.Attempted += n
	if bad > 0 {
		r.Failed += bad
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %d of %d", what, bad, n))
	}
}

// check records one named output check.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result-"+r.Workload+".json"), append(data, '\n'), 0o644)
}

func readResult(dir, workload string) (*result, error) {
	data, err := os.ReadFile(filepath.Join(dir, "result-"+workload+".json"))
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// checksum folds the system-fitness trajectory bit for bit.
func checksum(systems []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range systems {
		bits := math.Float64bits(s)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the revision run.sh found the checkout at; a checkout that is
// not a repository has none.
func commit() string {
	if rev := os.Getenv("MCBENCH_COMMIT"); rev != "" {
		return rev
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runStats snapshots the process counters a measured phase is charged
// with.
type runStats struct {
	cpuS    float64
	gc      uint32
	pauseNs uint64
	mallocs uint64
	bytes   uint64
	heap    uint64
}

func snapshot() runStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runStats{cpuS: cpuSeconds(), gc: ms.NumGC, pauseNs: ms.PauseTotalNs,
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heap: ms.HeapAlloc}
}

// add charges s with what the process used between two snapshots.
func (s *runStats) add(from, to runStats) {
	s.cpuS += to.cpuS - from.cpuS
	s.gc += to.gc - from.gc
	s.pauseNs += to.pauseNs - from.pauseNs
	s.mallocs += to.mallocs - from.mallocs
	s.bytes += to.bytes - from.bytes
}
