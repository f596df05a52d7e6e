package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small regression-study args: two algorithms (one window-sensitive), few
// ops — fast, and determinism makes record→check exact regardless of
// whether the tiny ramp resolves every knee.
func smallRegressionArgs(extra ...string) []string {
	return append([]string{"-study", "regression", "-algos", "central,combining",
		"-ops", "600", "-seed", "1"}, extra...)
}

// TestRunStudyRegressionRecordCheck is the gate's CLI acceptance test:
// record writes a schema-versioned baseline file, an immediate check
// against it passes with exit 0, and a deliberate merge-window regression
// flips the check to a non-zero exit naming knee and p99 metrics of the
// window-sensitive algorithm.
func TestRunStudyRegressionRecordCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")

	var rec strings.Builder
	if err := run(smallRegressionArgs("-format", "text", "-baseline", "record", path), &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), "recorded 2 fingerprints") {
		t.Fatalf("record output wrong:\n%s", rec.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"schema": 1`) || !strings.Contains(string(raw), `"algorithm": "combining"`) {
		t.Fatalf("baseline file malformed:\n%s", raw)
	}

	var chk strings.Builder
	if err := run(smallRegressionArgs("-format", "text", "-baseline", "check", path), &chk); err != nil {
		t.Fatalf("clean check failed: %v\n%s", err, chk.String())
	}
	if !strings.Contains(chk.String(), "regression gate: PASS") {
		t.Fatalf("check did not pass:\n%s", chk.String())
	}

	// The DefaultWindow-revert scenario: window 4 against the window-16
	// baseline. The config diff and the moved combining metrics must fail
	// the process and be named in the report.
	var bad strings.Builder
	err = run(smallRegressionArgs("-format", "text", "-window", "4", "-baseline", "check", path), &bad)
	if err == nil {
		t.Fatalf("window revert passed the gate:\n%s", bad.String())
	}
	if !strings.Contains(err.Error(), "baseline check failed") {
		t.Fatalf("exit error wrong: %v", err)
	}
	out := bad.String()
	if !strings.Contains(out, "regression gate: FAIL") || !strings.Contains(out, "base_window") {
		t.Fatalf("gate report does not name the config drift:\n%s", out)
	}
	for _, frag := range []string{"combining", "service_p"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("gate report does not name %q:\n%s", frag, out)
		}
	}
}

// TestRunStudyRegressionRecordRefusesIncompleteStudy: a study with
// skipped cells (unknown algorithm in the list) must not overwrite an
// existing baseline with zero-valued fingerprints.
func TestRunStudyRegressionRecordRefusesIncompleteStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-study", "regression", "-algos", "central,nope",
		"-ops", "200", "-baseline", "record", path}
	var b strings.Builder
	err := run(args, &b)
	if err == nil || !strings.Contains(err.Error(), "refusing to record") {
		t.Fatalf("incomplete study recorded anyway: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "precious" {
		t.Fatalf("existing baseline was clobbered: %q", raw)
	}
}

// TestRunStudyRegressionFormats: without -baseline the study renders the
// fingerprints themselves in every format, deterministically.
func TestRunStudyRegressionFormats(t *testing.T) {
	var js strings.Builder
	if err := run(smallRegressionArgs(), &js); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema       int    `json:"schema"`
		Study        string `json:"study"`
		Fingerprints []struct {
			Algorithm     string  `json:"algorithm"`
			N             int     `json:"n"`
			MessagesPerOp float64 `json:"messages_per_op"`
			ScalingClass  string  `json:"scaling_class"`
		} `json:"fingerprints"`
	}
	if err := json.Unmarshal([]byte(js.String()), &decoded); err != nil {
		t.Fatalf("invalid baseline JSON: %v\n%s", err, js.String())
	}
	if decoded.Schema != 1 || decoded.Study != "regression" || len(decoded.Fingerprints) != 2 {
		t.Fatalf("baseline document incoherent: %+v", decoded)
	}
	for _, f := range decoded.Fingerprints {
		if f.N < 16 || f.MessagesPerOp <= 0 || f.ScalingClass == "" {
			t.Fatalf("fingerprint incoherent: %+v", f)
		}
	}

	var csv strings.Builder
	if err := run(smallRegressionArgs("-format", "csv"), &csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "algo,n,knee_rate") {
		t.Fatalf("baseline CSV wrong shape:\n%s", csv.String())
	}

	var again strings.Builder
	if err := run(smallRegressionArgs(), &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != js.String() {
		t.Fatal("identical regression studies produced different baselines")
	}
}

// TestRunStudyRegressionArtifacts: -artifacts writes the study's JSON and
// CSV artifact files alongside whatever goes to stdout.
func TestRunStudyRegressionArtifacts(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	arts := filepath.Join(dir, "arts")
	var b strings.Builder
	if err := run(smallRegressionArgs("-artifacts", arts, "-baseline", "record", base), &b); err != nil {
		t.Fatal(err)
	}
	var chk strings.Builder
	if err := run(smallRegressionArgs("-artifacts", arts, "-format", "text", "-baseline", "check", base), &chk); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"regression-baseline.json", "regression-baseline.csv",
		"regression-gate.json", "regression-gate.csv"} {
		fi, err := os.Stat(filepath.Join(arts, name))
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("artifact %s is empty", name)
		}
	}
}

// TestRunServiceDist: heterogeneous service profiles are reachable from
// the single-run CLI and actually slow the slowed half — the halfslow
// profile must raise tail latency over the flat profile at the same
// offered load.
func TestRunServiceDist(t *testing.T) {
	p99 := func(dist string) float64 {
		var b strings.Builder
		args := []string{"-algo", "quorum-majority", "-scenario", "ramprate", "-mode", "open",
			"-service", "1", "-service-dist", dist, "-n", "16", "-ops", "400", "-format", "json"}
		if err := run(args, &b); err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			Latency struct {
				P99 float64 `json:"p99"`
			} `json:"latency"`
		}
		if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
			t.Fatal(err)
		}
		return decoded.Latency.P99
	}
	flat, slow := p99("flat"), p99("halfslow")
	if slow <= flat {
		t.Fatalf("halfslow p99 %v not above flat p99 %v", slow, flat)
	}
}

// TestRunRegressionBadArgs: the regression study pins its grid and rejects
// the flags it would otherwise silently ignore; -baseline outside the
// study, unknown modes, path-less record, and bad -service-dist values are
// all flag errors.
func TestRunRegressionBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-study", "regression", "-ns", "8,16"},
		{"-study", "regression", "-windows", "1,4"},
		{"-study", "regression", "-service-dist", "halfslow"},
		{"-study", "regression", "-queue-cap", "8"},
		{"-study", "regression", "-rate-from", "0.5"},
		{"-study", "regression", "-mean-gap", "32"},
		{"-study", "regression", "-warmup", "100"},
		{"-study", "regression", "-verify"},
		{"-study", "regression", "-mode", "closed"},
		{"-study", "regression", "-n", "200"},                    // the grid pins its own sizes
		{"-study", "regression", "-inflight", "3"},               // open loop has no admission window
		{"-study", "regression", "-zipf-s", "2"},                 // every cell runs ramprate
		{"-study", "regression", "-sample", "3"},                 // fingerprints carry no series
		{"-baseline", "record", "x.json"},                        // no study
		{"-sweep", "-algos", "central", "-baseline", "check"},    // no study
		{"-study", "regression", "-baseline", "maybe", "x.json"}, // unknown mode
		{"-study", "regression", "-baseline", "record"},          // missing path
		{"-study", "regression", "stray-arg"},                    // positional without -baseline
		{"-service", "1", "-service-dist", "nope"},
		{"-service-dist", "halfslow"}, // dist without -service
		{"-artifacts", "/tmp/x"},      // artifacts without the study
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
