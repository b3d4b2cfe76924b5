package manager

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"mcorr/internal/core"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
)

// trajectoryFingerprint is the FNV-1a hash TestTrajectoryFingerprint
// computes. It moves only when scoring arithmetic moves: a change that
// means to keep every trajectory must leave it alone, on every machine and
// on every path through the row kernels.
const trajectoryFingerprint = 0xfe8d9ef101773c9e

// TestTrajectoryFingerprint pins the bits of one adaptive fleet's
// trajectory — every outcome's fitness and flags and every report's system
// fitness — to a committed constant. The day holds grid growth, a gap and
// an out-of-grid point, and is scored by two workers. On amd64 with AVX2 it
// runs the vector row kernels; under GOARCH=386 (make cross-check) the
// portable loops: the one constant holds both to the same bits.
func TestTrajectoryFingerprint(t *testing.T) {
	ds, _, err := simulator.Generate(simulator.GroupConfig{Name: "F", Machines: 2, Days: 2, Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	day1 := timeseries.MonitoringStart.AddDate(0, 0, 1)
	history := ds.Slice(timeseries.MonitoringStart, day1)
	ids := history.IDs()
	cfg := Config{Workers: 2, ProbDelta: 1e-9, Model: core.Config{Adaptive: true, Grid: core.GridConfig{MaxIntervals: 6}}}
	m, err := New(history, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const rows = 144
	h := fnv.New64a()
	var buf [9]byte
	var gaps, grown, rejected int
	vals := make([]float64, len(ids))
	for k := 0; k < rows; k++ {
		at := day1.Add(time.Duration(k) * timeseries.SampleStep)
		Row{Values: rowValues(ds, at)}.FillValues(ids, vals)
		switch k {
		case 30:
			vals[2] = math.NaN()
		case 31:
			vals[2], vals[4] = math.NaN(), math.NaN()
		case 60:
			vals[5] *= 1e6 // far beyond λ average widths: rejected, never grown to
		}
		rep := m.StepValues(at, vals)
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(rep.System))
		h.Write(buf[:8])
		for _, o := range m.outcomes {
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(o.Fitness))
			buf[8] = b2u(o.Scored) | b2u(o.Gap)<<1 | b2u(o.Grown)<<2 | b2u(o.Steady)<<3
			h.Write(buf[:])
			switch {
			case o.Gap:
				gaps++
			case o.Grown:
				grown++
			case o.Scored && o.Fitness == 0:
				rejected++
			}
		}
	}
	if len(ids) < 10 || gaps == 0 || grown == 0 || rejected == 0 {
		t.Fatalf("fixture: %d measurements, %d gaps, %d growths, %d out-of-grid points: want ~12 and some of each", len(ids), gaps, grown, rejected)
	}
	if got := h.Sum64(); got != trajectoryFingerprint {
		t.Fatalf("trajectory fingerprint %#016x, want %#016x: scoring no longer stores the bits it did", got, uint64(trajectoryFingerprint))
	}
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
