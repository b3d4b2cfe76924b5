// Command bench is the repository's benchmark: it drives the real
// pipeline — ReliableAgent → loopback TCP → collector.Server →
// Tenant.AppendBatch → WAL → tsdb → row assembly → fleet Step → alarm
// sink → diagnosis → OnReport — from one process, on four workloads,
// prints every metric by name with its unit, and checks the outputs.
//
//	bash bench/run.sh                          every workload, each in a child process
//	bash bench/run.sh --workload dense48       one workload, in this process
//	bash bench/run.sh --trace 1                add the traced pass and the per-layer metrics
//	bash bench/run.sh --repeat 6               the repeatability table
//	bash bench/run.sh --scale tiny             l=16, two measured cycles: a smoke run
//
// BENCHMARK.json at the repository root names the command, the workloads
// and the metrics; README.md in this directory defines them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// scale sizes a run. The full scale is what BENCHMARK.json measures; tiny
// is for bench_test.go and smoke runs.
type scale struct {
	name string
	// machines overrides every workload's fleet size when > 0.
	machines int
	// minCycles is how many whole input cycles the measured phase runs at
	// least; --seconds asks for more (cyclesFor).
	minCycles int
	// checkpoints is how many checkpoints mixed-rw forces, evenly spaced
	// over the measured cycles, the last one after the last cycle.
	checkpoints  int
	minQueries   int
	tracedCycles int
	probeIters   int
	// seconds is the measured time when --seconds is not given.
	seconds float64
}

var scales = map[string]scale{
	"full": {name: "full", minCycles: 8, checkpoints: 3, minQueries: 250, tracedCycles: 4, probeIters: 2000, seconds: 10},
	"tiny": {name: "tiny", machines: 2, minCycles: 2, checkpoints: 1, minQueries: 10, tracedCycles: 1, probeIters: 100},
}

// budget is the workload's discovery budget at this scale: as specified
// at full scale, half the graph when the fleet was shrunk.
func (s scale) budget(w workload, l int) int {
	if s.machines == 0 {
		return w.budget
	}
	return l * (l - 1) / 4
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	repeat   int
	out      string
}

func main() {
	var (
		o         options
		trace     int
		scaleName string
	)
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process and end with the one-line JSON result (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 9, "draws the measurement noise and the faulted machine; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", -1, "how long the measured phase runs on the reference box: it sets the number of whole input cycles, at least the scale's minimum (default: 10 at full scale, the minimum at tiny)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and the layer probes and ends with the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&scaleName, "scale", "full", "full or tiny (l=16, two measured cycles)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the benchmark this many times, each with another seed, and print how far the runs disagree next to each metric's bound")
	flag.StringVar(&o.out, "out", defaultOut(), "directory for results, traces and scratch data")
	flag.Parse()
	o.trace = trace != 0
	var ok bool
	if o.scale, ok = scales[scaleName]; !ok {
		fatal(fmt.Errorf("unknown scale %q", scaleName))
	}
	if o.seconds < 0 {
		o.seconds = o.scale.seconds
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case o.repeat > 0:
		fatal(repeat(o))
	case o.workload == "":
		results, err := runAll(o)
		if err == nil {
			err = printAll(results)
		}
		fatal(err)
	default:
		w, ok := findWorkload(o.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", o.workload))
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(err)
		}
		if err := res.write(o.out); err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		if res.Failed > 0 {
			// A wrong output is not a result: no JSON line.
			fatal(fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
		}
		fmt.Println(res.contractLine())
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultOut is bench/out from the repository root and out from inside
// the bench directory.
func defaultOut() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return "bench/out"
	}
	return "out"
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, o options) (*result, error) {
	// The load generator, the server and the scorers share two threads at
	// most: more runnable threads than cores measure the scheduler.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if o.scale.machines > 0 {
		w.machines = o.scale.machines
	}
	in, err := generate(w, o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult(w, o)
	if w.shardnet {
		err = runShardnet(w, in, o, res)
	} else {
		err = runTenant(w, in, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// contractLine is the last line of a single-workload run: the end-to-end
// metrics, or the per-layer ones after a traced run.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: r.Metrics[d.name], Unit: d.unit}
	}
	line, _ := json.Marshal(out)
	return string(line)
}

// runChild runs one workload in a child process, so that its peak RSS is
// its own, and reads the result file the child leaves.
func runChild(w workload, o options, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace, "--scale", o.scale.name, "--out", o.out)
	cmd.Stderr = os.Stderr
	// A child that dies early must not leave an older run's result behind.
	os.Remove(filepath.Join(o.out, "result-"+w.name+".json"))
	if _, err := cmd.Output(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			return nil, err
		}
		// The child says what failed; its result file says the rest.
	}
	return readResult(o.out, w.name)
}

func runAll(o options) ([]*result, error) {
	var results []*result
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: running %s\n", w.name)
		res, err := runChild(w, o, o.seed)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}
