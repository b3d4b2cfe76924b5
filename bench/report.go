package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// print writes every metric the run measured, by name, with its unit.
func (r *result) print(w io.Writer) {
	s := r.Stamp
	fmt.Fprintf(w, "workload %s  seed %d (fleet seed %d)  scale %s  l=%d  pairs=%d\n", r.Workload, s.Seed, s.FleetSeed, s.Scale, s.L, s.Pairs)
	fmt.Fprintf(w, "  on nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", s.NProc, s.GOMAXPROCS, s.GoVersion, s.CPUModel, s.Commit)
	fmt.Fprintf(w, "  rows: warm-up %d, measured %d, recovery tail %d, traced %d\n", s.WarmRows, s.MeasuredRows, s.TailRows, s.TracedRows)
	printDefs := func(defs []metricDef) {
		for _, d := range defs {
			if v, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Fprintln(w, " end-to-end")
	printDefs(endToEnd)
	printDefs(mixedEndToEnd)
	fmt.Fprintln(w, " per-layer")
	printDefs(layers)
	fmt.Fprintf(w, " checks: attempted_ops %d, failed_ops %d, checksum %s\n", r.Attempted, r.Failed, r.Checksum)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// printAll prints every workload's result and makes the one check that
// spans two of them.
func printAll(results []*result) error {
	byName := map[string]*result{}
	failed := 0
	for _, r := range results {
		r.print(os.Stdout)
		fmt.Println()
		byName[r.Workload] = r
		failed += r.Failed
	}
	if d, s := byName["dense48"], byName["shardnet48"]; d != nil && s != nil {
		if d.Checksum == s.Checksum {
			fmt.Printf("dense48 and shardnet48 agree on the system-fitness trajectory bit for bit (%s)\n", d.Checksum)
		} else {
			fmt.Printf("FAILED dense48 checksum %s, shardnet48 checksum %s: the trajectories differ\n", d.Checksum, s.Checksum)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does, which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// repeatRows are the metrics --repeat prints for workload w: the gated
// ones, then, without a bound, what the run measured before the host
// factor was applied and the yardstick itself.
func repeatRows(w workload) []metricDef {
	rows := slices.Clone(gated(w))
	for _, d := range layers {
		switch d.name {
		case "run.raw_samples_per_s", "run.raw_sample_to_alarm_p50_ms", "run.yardstick_ms":
			rows = append(rows, d)
		}
	}
	return rows
}

// repeat runs the benchmark o.repeat times, each time with another seed,
// and prints for every workload × end-to-end metric how far the runs
// disagree: the spread (interquartile range over median) of all runs,
// and how much worse the median of the odd runs is than the median of
// the even runs — two interleaved sets of runs of the same code.
func repeat(o options) error {
	todo := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workload{w}
	}
	values := map[string][]float64{} // "workload/metric" → one value per run
	for run := 0; run < o.repeat; run++ {
		for _, w := range todo {
			fmt.Fprintf(os.Stderr, "bench: run %d of %d, %s, seed %d\n", run+1, o.repeat, w.name, o.seed+int64(run))
			res, err := runChild(w, o, o.seed+int64(run))
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed operations: %v", w.name, o.seed+int64(run), res.Failed, res.Failures)
			}
			for _, d := range repeatRows(w) {
				values[w.name+"/"+d.name] = append(values[w.name+"/"+d.name], res.Metrics[d.name])
			}
		}
	}
	fmt.Printf("%-12s %-32s %12s %8s %12s %12s %8s %6s\n", "workload", "metric", "median", "spread", "even runs", "odd runs", "worse", "bound")
	over := 0
	for _, w := range todo {
		for _, d := range repeatRows(w) {
			v := values[w.name+"/"+d.name]
			var even, odd []float64
			for i, x := range v {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			med := median(v)
			spread := math.NaN()
			if len(v) >= 2 {
				q1, q3 := quartiles(v)
				spread = (q3 - q1) / med
			}
			a, b := median(even), median(odd)
			worse := (b - a) / a
			if d.better == "higher" {
				worse = -worse
			}
			// setup_s is held to the median shift only, as the driver does;
			// a metric without a bound is held to nothing.
			flag := ""
			if d.bound > 0 && (math.Abs(worse) > d.bound*2/3 || (d.name != "setup_s" && spread > d.bound/3)) {
				flag = "  <-- too far apart"
				over++
			}
			fmt.Printf("%-12s %-32s %12.4f %8.4f %12.4f %12.4f %+8.4f %6.2f%s\n", w.name, d.name, med, spread, a, b, worse, d.bound, flag)
			fmt.Printf("%-12s   every run:", "")
			for _, x := range v {
				fmt.Printf(" %.4g", x)
			}
			fmt.Println()
		}
	}
	if over > 0 {
		return fmt.Errorf("%d cells disagree by more than a third of the bound (spread) or two thirds of it (set medians)", over)
	}
	return nil
}
