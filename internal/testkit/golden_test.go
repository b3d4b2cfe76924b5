package testkit_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcorr/internal/simulator"
	"mcorr/internal/testkit"
)

var update = flag.Bool("update", false, "rewrite the mcdetect goldens under testdata/ from this build's output (make goldens)")

// TestMcdetectGoldenLines pins mcdetect's deterministic lines — STEP,
// INCIDENT, DISCOVER and PAIRGRAPH — in durable mode, with and without the
// discovery tier, against goldens committed under testdata/. A change meant
// to leave scoring, diagnosis and discovery as they are must leave every
// one of these lines byte for byte; regenerate the goldens (`make goldens`)
// only in a change that means to move them.
func TestMcdetectGoldenLines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries; skipped in -short")
	}
	mcdetect := testkit.BuildBinary(t, "mcorr/cmd/mcdetect")
	dir := t.TempDir()
	csv := filepath.Join(dir, "group.csv")
	fault, err := simulator.ParseFault("cli-0", "decoupled-spike@A-srv-01@2008-06-02T09:00:00Z@2008-06-02T13:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	testkit.WriteGroupCSV(t, csv, simulator.GroupConfig{
		Name: "A", Machines: 3, Days: 6, Seed: 5, Faults: []simulator.Fault{fault},
	})
	base := []string{"-data", csv, "-train-days", "3", "-incident", "-incident-open-below", "0.97"}
	modes := []struct {
		name string
		args []string
	}{
		{"durable", nil},
		// Short rounds and a near-1 eviction floor make the graph churn.
		{"durable-budget", []string{"-pair-budget", "25%", "-discover-round", "30", "-discover-evict-below", "0.999"}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			args := append(append([]string{}, base...), "-data-dir", filepath.Join(dir, m.name))
			got := goldenLines(testkit.Run(t, mcdetect, append(args, m.args...)...))
			path := filepath.Join("testdata", "mcdetect-"+m.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (make goldens writes it)", err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			for i := 0; i < len(want) || i < len(got); i++ {
				var w, g string
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if w != g {
					t.Fatalf("line %d differs from %s (%d lines, got %d):\nwant: %s\ngot:  %s", i+1, path, len(want), len(got), w, g)
				}
			}
		})
	}
}

// goldenLines keeps the lines mcdetect prints as functions of the input
// alone.
func goldenLines(lines []string) []string {
	var out []string
	for _, l := range lines {
		for _, p := range []string{"STEP ", "INCIDENT ", "DISCOVER ", "PAIRGRAPH "} {
			if strings.HasPrefix(l, p) {
				out = append(out, l)
				break
			}
		}
	}
	return out
}
