package testkit

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/tsdb"
)

var (
	buildMu   sync.Mutex
	buildDir  string
	buildMemo = map[string]string{}
)

// BuildBinary compiles the named command package (e.g. "mcorr/cmd/mcdetect")
// and returns the binary path. Builds are memoized per test process, so a
// suite that launches the same binary many times compiles it once.
func BuildBinary(t testing.TB, pkg string) string {
	t.Helper()
	buildMu.Lock()
	defer buildMu.Unlock()
	if bin, ok := buildMemo[pkg]; ok {
		return bin
	}
	if buildDir == "" {
		dir, err := os.MkdirTemp("", "mcorr-testkit-")
		if err != nil {
			t.Fatalf("testkit: temp dir: %v", err)
		}
		buildDir = dir
	}
	bin := filepath.Join(buildDir, path.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("testkit: go build %s: %v\n%s", pkg, err, out)
	}
	buildMemo[pkg] = bin
	return bin
}

// repoRoot walks up from the working directory to the module root so
// BuildBinary resolves package paths regardless of which package's test
// invoked it.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("testkit: getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("testkit: go.mod not found above working directory")
		}
		dir = parent
	}
}

// WriteGroupCSV generates a deterministic synthetic monitoring dataset and
// writes it as CSV — the same data a `mcgen` invocation with these
// parameters would produce.
func WriteGroupCSV(t testing.TB, csvPath string, cfg simulator.GroupConfig) {
	t.Helper()
	ds, _, err := simulator.Generate(cfg)
	if err != nil {
		t.Fatalf("testkit: generate: %v", err)
	}
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatalf("testkit: create %s: %v", csvPath, err)
	}
	defer f.Close()
	if err := timeseries.WriteCSV(f, ds); err != nil {
		t.Fatalf("testkit: write csv: %v", err)
	}
}

// Run executes the binary to completion and returns its stdout split into
// lines. A non-zero exit fails the test with both output streams attached.
func Run(t testing.TB, bin string, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("testkit: %s %s: %v\nstdout:\n%s\nstderr:\n%s",
			path.Base(bin), strings.Join(args, " "), err, stdout.String(), stderr.String())
	}
	return splitLines(stdout.String())
}

// RunKillAfterSteps starts the binary, watches its stdout, and delivers
// SIGKILL as soon as n "STEP " lines have been observed — an unclean crash
// mid-stream, with no chance for the process to flush or checkpoint. It
// returns every stdout line captured (a few buffered lines may trail the
// kill). The test fails if the process finishes before reaching n steps.
func RunKillAfterSteps(t testing.TB, bin string, n int, args ...string) []string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("testkit: stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("testkit: start %s: %v", path.Base(bin), err)
	}
	var lines []string
	steps := 0
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if strings.HasPrefix(line, "STEP ") {
			steps++
			if steps == n {
				if err := cmd.Process.Kill(); err != nil {
					t.Fatalf("testkit: kill: %v", err)
				}
			}
		}
	}
	_ = cmd.Wait() // the kill makes a non-nil exit the expected outcome
	if steps < n {
		t.Fatalf("testkit: %s finished after %d steps, wanted to kill at %d\nstderr:\n%s",
			path.Base(bin), steps, n, stderr.String())
	}
	return lines
}

// StepMap extracts the per-step fitness lines ("STEP <time> Q=... scored=...")
// keyed by timestamp, later occurrences replacing earlier ones. Feeding it
// the concatenation of a killed run and its recovery run yields the
// trajectory the pair claims to have produced, directly comparable with an
// uninterrupted baseline.
func StepMap(lines []string) map[string]string {
	out := make(map[string]string)
	for _, line := range lines {
		if !strings.HasPrefix(line, "STEP ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		out[fields[1]] = line
	}
	return out
}

// DiffStepMaps compares two step trajectories and returns a description of
// every divergence: timestamps present on one side only, and lines that
// differ byte-for-byte. Empty result means bit-identical trajectories.
func DiffStepMaps(want, got map[string]string) []string {
	var diffs []string
	for ts, w := range want {
		g, ok := got[ts]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("missing step %s", ts))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("step %s:\n  want %q\n  got  %q", ts, w, g))
		}
	}
	for ts := range got {
		if _, ok := want[ts]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra step %s", ts))
		}
	}
	return diffs
}

// SlowSink is fault injection for flow-control tests: it delays every
// AppendBatch by Delay before forwarding to Next, simulating a sink that
// cannot keep up with ingest (the condition the collector's admission
// queue and shed policies exist for). The Next field is typed
// structurally so testkit stays import-cycle-free with the packages
// under test; any store or sink with AppendBatch satisfies it.
type SlowSink struct {
	Next  interface{ AppendBatch([]tsdb.Sample) error }
	Delay time.Duration
}

// AppendBatch sleeps for the configured delay, then forwards the batch.
func (s *SlowSink) AppendBatch(batch []tsdb.Sample) error {
	time.Sleep(s.Delay)
	return s.Next.AppendBatch(batch)
}

// GoroutineLeakCheck records the goroutine count and returns a function
// that fails the test unless the count is back at or below that baseline
// within five seconds. Call it before starting what must not leak and the
// returned function after stopping it: goroutines exit a moment after the
// Close that ends them, so one reading straight away would flake.
func GoroutineLeakCheck(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("testkit: %d goroutines, %d before the test started them:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func splitLines(s string) []string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
