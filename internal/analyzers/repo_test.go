package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoComesClean is the lint gate's own regression test: the real
// repository must produce zero findings, so `make lint` stays green and
// any future finding is a genuine regression (or needs an annotated
// //ctmsvet:allow).
func TestRepoComesClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	diags, err := RunRepo(root)
	if err != nil {
		t.Fatalf("RunRepo: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo finding: %s", d)
	}
}

// TestInjectedViolations is the acceptance check in reverse: drop a
// wall-clock read into a sim-critical package of a scratch module, and
// ctmsvet must fail with a diagnostic at the right file and line. (The
// bytes->bits half lives in TestInjectedViolationsDim.)
func TestInjectedViolations(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.22\n")
	write("internal/sim/bad.go", `package sim

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)

	diags, err := RunRepo(root)
	if err != nil {
		t.Fatalf("RunRepo: %v", err)
	}
	var gotClock bool
	for _, d := range diags {
		if d.Analyzer == "determinism" &&
			strings.HasSuffix(d.File, filepath.Join("internal", "sim", "bad.go")) &&
			d.Line == 5 && strings.Contains(d.Message, "time.Now") {
			gotClock = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotClock {
		t.Errorf("injected time.Now in internal/sim not reported; got %d diagnostics", len(diags))
	}
}

// TestSimCriticalCoverage makes scope drift impossible: every package
// under internal/ must be either sim-critical (listed) or exempted with
// a reason — PR 7 had to remember to enroll workload and stats by hand;
// a new package now fails this test until someone decides which side of
// the line it lives on. Stale entries (listed or exempted packages that
// no longer exist) fail too, so the lists describe the tree as it is.
func TestSimCriticalCoverage(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	listed := make(map[string]bool, len(SimCriticalPackages))
	for _, p := range SimCriticalPackages {
		listed[p] = true
	}
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatalf("read internal/: %v", err)
	}
	present := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rel := "internal/" + e.Name()
		present[rel] = true
		_, exempt := SimCriticalExemptions[rel]
		switch {
		case listed[rel] && exempt:
			t.Errorf("%s is both sim-critical and exempted; pick one", rel)
		case !listed[rel] && !exempt:
			t.Errorf("%s is neither in SimCriticalPackages nor in SimCriticalExemptions; decide which and say why", rel)
		}
	}
	for _, p := range SimCriticalPackages {
		if !present[p] {
			t.Errorf("SimCriticalPackages lists %s, which does not exist", p)
		}
	}
	for p, reason := range SimCriticalExemptions {
		if !present[p] {
			t.Errorf("SimCriticalExemptions lists %s, which does not exist", p)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exemption for %s has no reason; the reason is the point", p)
		}
	}
}

// TestMarshalJSONDiagnostics pins the -json contract: always an array,
// never null.
func TestMarshalJSONDiagnostics(t *testing.T) {
	out, err := MarshalJSONDiagnostics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("empty diagnostics marshal to %q, want []", out)
	}
	out, err = MarshalJSONDiagnostics([]Diagnostic{{
		Analyzer: "dim", File: "x.go", Line: 3, Col: 7, Message: "m",
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"analyzer": "dim"`, `"file": "x.go"`, `"line": 3`, `"col": 7`, `"message": "m"`} {
		if !strings.Contains(string(out), key) {
			t.Errorf("marshalled diagnostics missing %s:\n%s", key, out)
		}
	}
}
