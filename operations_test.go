package mcorr

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"mcorr/internal/obs"
)

// TestOperationsDocCoverage keeps OPERATIONS.md honest: every flag the
// shipped binaries declare and every metric family the live registry
// exports must be mentioned in the runbook. New flags and metrics fail
// this test until they are documented.
func TestOperationsDocCoverage(t *testing.T) {
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	text := string(doc)

	// A binary's flags are declared in its main.go and, for the families
	// two binaries share, in internal/cliflags (on an fs *flag.FlagSet).
	// The floors are the distinct flags each binary takes today: a
	// declaration moved where this scan does not look fails here instead of
	// quietly leaving the gate.
	flagDecl := regexp.MustCompile(`(?:flag|fs)\.(?:String|Bool|Int|Int64|Float64|Duration)\(\s*"([a-z][a-z-]*)"`)
	const shared = "internal/cliflags/cliflags.go"
	for _, bin := range []struct {
		srcs  []string
		floor int
	}{
		{[]string{"cmd/mcdetect/main.go", shared}, 31},
		{[]string{"cmd/mccollect/main.go", shared}, 25},
		{[]string{"cmd/mcshard/main.go"}, 4},
	} {
		flags := make(map[string]bool)
		for _, src := range bin.srcs {
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatalf("read %s: %v", src, err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(b), -1) {
				flags[m[1]] = true
				if want := fmt.Sprintf("`-%s`", m[1]); !strings.Contains(text, want) {
					t.Errorf("%s declares -%s but OPERATIONS.md does not mention %s", src, m[1], want)
				}
			}
		}
		if len(flags) < bin.floor {
			t.Errorf("%s: found %d distinct flag declarations, want at least %d — a declaration moved out of sight, or the regex is out of date", bin.srcs[0], len(flags), bin.floor)
		}
	}

	// The process gauges register lazily when an ops server starts, and
	// the build-info gauge when a binary starts; do both so MetricNames
	// reports the full surface an operator would actually scrape.
	srv, err := obs.ServeOps("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer srv.Close()
	obs.RegisterBuildInfo("", 1)

	names := obs.Default().MetricNames()
	if len(names) == 0 {
		t.Fatal("registry reports no metric families")
	}
	exported := make(map[string]bool, len(names))
	for _, name := range names {
		exported[name] = true
		if want := fmt.Sprintf("`%s`", name); !strings.Contains(text, want) {
			t.Errorf("registry exports %s but OPERATIONS.md does not mention %s", name, want)
		}
	}

	// And the other way: every family the runbook names in a code span is
	// one the registry exports, so a deleted metric's row cannot linger. A
	// histogram's _bucket/_sum/_count series fold into their family; a
	// prefix (`mcorr_x_*`, or a name ending in `_`) names a group, not a
	// family.
	family := regexp.MustCompile(`mcorr_[a-z0-9_]*\*?`)
	for _, span := range regexp.MustCompile("`[^`]*`").FindAllString(text, -1) {
		for _, m := range family.FindAllString(span, -1) {
			if strings.HasSuffix(m, "_") || strings.HasSuffix(m, "*") || exported[m] {
				continue
			}
			base := m
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if !exported[base] {
				t.Errorf("OPERATIONS.md mentions `%s`, which the registry does not export", m)
			}
		}
	}
}
