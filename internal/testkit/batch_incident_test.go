package testkit_test

import (
	"path/filepath"
	"strings"
	"testing"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

// TestBatchModeMatchesDurableMode holds mcdetect's two ways of replaying a
// CSV to one answer: batch mode (-print-steps, no -data-dir) and durable
// mode must print the same STEP, INCIDENT and incidents: lines. A digest's
// suspect is the machine ranking at the row the incident opened, so batch
// mode has to hand each report to the diagnosis engine as soon as it is
// scored, as the durable monitor does; scoring the whole window first
// would rank every digest by the accumulators at the end of the run.
func TestBatchModeMatchesDurableMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	fault, err := simulator.ParseFault("cli-0", "decoupled-spike@A-srv-01@2008-06-06T09:00:00Z@2008-06-06T13:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 10, Seed: 5, Faults: []simulator.Fault{fault},
	})
	args := []string{"-data", csv, "-train-days", "3", "-incident", "-incident-open-below", "0.97"}

	batch := replayLines(testkit.Run(t, mcdetect, append(args, "-print-steps")...))
	durable := replayLines(testkit.Run(t, mcdetect, append(args, "-data-dir", filepath.Join(dir, "dd"))...))
	if len(batch) != len(durable) {
		t.Fatalf("batch mode printed %d STEP/INCIDENT lines, durable mode %d", len(batch), len(durable))
	}
	incidents := 0
	for i := range durable {
		if batch[i] != durable[i] {
			t.Errorf("line %d differs:\nbatch:   %s\ndurable: %s", i, batch[i], durable[i])
		}
		if strings.HasPrefix(durable[i], "INCIDENT ") {
			incidents++
		}
	}
	if incidents == 0 {
		t.Fatal("no incident opened; the comparison tests nothing")
	}
}

// replayLines keeps the lines both modes print for every replayed row
// and incident.
func replayLines(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "STEP ") || strings.HasPrefix(l, "INCIDENT ") || strings.HasPrefix(l, "incidents:") {
			out = append(out, l)
		}
	}
	return out
}
