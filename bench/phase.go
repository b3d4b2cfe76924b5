package main

import (
	"fmt"
	"math"
	"time"
)

// rowFunc pushes row k through a pipeline and returns its
// sample-to-alarm latency.
type rowFunc func(k int) (time.Duration, error)

// phase holds what a run of whole input cycles measured. Every cycle
// replays the same 480 rows, so the cycles are equal segments of the
// phase: the same work, cycle after cycle.
type phase struct {
	cycleS []float64 // per cycle: the time its rows occupied the closed loop
	latMs  []float64 // per row: its sample-to-alarm latency
	// yardMs holds the yardstick's time before every cycle and after the
	// last: cycle c ran between yardMs[c] and yardMs[c+1]. Only the
	// measured phase has it.
	yardMs []float64
}

// runCycle pushes one whole input cycle starting at row *next.
func (p *phase) runCycle(next *int, do rowFunc) error {
	if *next%cycleRows != 0 {
		return fmt.Errorf("cycle starts at row %d, not on a cycle boundary", *next)
	}
	start := time.Now()
	for i := 0; i < cycleRows; i++ {
		lat, err := do(*next)
		if err != nil {
			return fmt.Errorf("row %d: %w", *next, err)
		}
		p.latMs = append(p.latMs, lat.Seconds()*1e3)
		*next++
	}
	p.cycleS = append(p.cycleS, time.Since(start).Seconds())
	return nil
}

// measure runs the given number of whole cycles, with a yardstick probe
// before each and after the last. before and after, when set, run around
// every cycle, off the clock; after gets the cycle's number, from 1. It
// returns what the process used while the cycles ran.
func (p *phase) measure(cycles int, next *int, do rowFunc, before func(), after func(cycle int) error) (busy runStats, err error) {
	yard, err := newYardstick()
	if err != nil {
		return busy, err
	}
	defer yard.close()
	probe := func() error {
		ms, err := yard.probe()
		p.yardMs = append(p.yardMs, ms)
		return err
	}
	p.latMs = make([]float64, 0, cycles*cycleRows)
	for c := 1; c <= cycles; c++ {
		if err = probe(); err != nil {
			return busy, err
		}
		if before != nil {
			before()
		}
		s0 := snapshot()
		err = p.runCycle(next, do)
		busy.add(s0, snapshot())
		if after != nil && err == nil {
			err = after(c)
		}
		if err != nil {
			return busy, err
		}
	}
	return busy, probe()
}

// hostFactor says how much slower than the reference box in a quiet
// stretch the host was while cycle c ran: the mean of the yardstick
// probes on either side of it over yardRefMs.
func (p *phase) hostFactor(c int) float64 {
	return (p.yardMs[c] + p.yardMs[c+1]) / 2 / yardRefMs
}

func (p *phase) rows() int { return len(p.cycleS) * cycleRows }

// seconds is the time the cycles took, excluding whatever ran between
// them.
func (p *phase) seconds() float64 {
	total := 0.0
	for _, s := range p.cycleS {
		total += s
	}
	return total
}

// cycleRates returns rows/s of each cycle, in order.
func (p *phase) cycleRates() []float64 {
	rates := make([]float64, len(p.cycleS))
	for i, s := range p.cycleS {
		rates[i] = float64(cycleRows) / s
	}
	return rates
}

// report writes the metrics every workload's measured phase yields.
// busy is what the process used while the cycles ran.
//
// A cycle's rate is rows over elapsed time, with every stall that fell
// inside the cycle (GC assist, a WAL fsync) in it. samples_per_s is the
// median over the cycles of that rate times the cycle's host factor, and
// sample_to_alarm_p50_ms the median over the rows of the row's latency
// over its cycle's host factor: what the run measured, put on the scale of
// the reference box in a quiet stretch. The raw medians are reported
// beside them as run.raw_*. The median over 14 or more equal segments
// drops the cycle the injected fault makes twice as long; a cost every
// cycle pays stays in.
func (p *phase) report(res *result, l int, busy runStats) {
	res.Stamp.MeasuredRows = p.rows()
	res.CycleRates = p.cycleRates()
	scaledRates := make([]float64, len(res.CycleRates))
	scaledLat := make([]float64, len(p.latMs))
	for c, rate := range res.CycleRates {
		f := p.hostFactor(c)
		scaledRates[c] = rate * f
		for i := c * cycleRows; i < (c+1)*cycleRows; i++ {
			scaledLat[i] = p.latMs[i] / f
		}
	}
	res.Metrics["samples_per_s"] = median(scaledRates) * float64(l)
	res.Metrics["sample_to_alarm_p50_ms"] = median(scaledLat)
	res.Metrics["run.raw_samples_per_s"] = median(res.CycleRates) * float64(l)
	res.Metrics["run.raw_sample_to_alarm_p50_ms"] = median(p.latMs)
	res.Metrics["run.yardstick_ms"] = median(p.yardMs)
	res.Metrics["run.sample_to_alarm_p99_ms"] = quantile(p.latMs, 0.99)
	res.Metrics["run.sample_to_alarm_p999_ms"] = quantile(p.latMs, 0.999)
	q1, q3 := quartiles(res.CycleRates)
	res.Metrics["run.segment_spread"] = (q3 - q1) / median(res.CycleRates)
	res.Metrics["run.cpu_s_per_msample"] = busy.cpuS / (float64(p.rows()*l) / 1e6)
	res.Metrics["run.gc_cycles"] = float64(busy.gc)
	res.Metrics["run.gc_pause_ms_total"] = float64(busy.pauseNs) / 1e6
}

// cyclesFor turns --seconds into a whole number of input cycles, by the
// workload's cycle time on the box the numbers were first taken on, not
// by this run's clock. The measured row count is therefore the same on a
// fast and on a slow host, and with it what the run allocates, how often
// the collector runs and where the resident set peaks.
func cyclesFor(w workload, o options) int {
	return max(o.scale.minCycles, int(math.Round(o.seconds/w.cycleSeconds)))
}
