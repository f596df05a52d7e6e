package main

import (
	"encoding/json"
	"strings"
	"testing"

	"distcount/internal/engine"
	"distcount/internal/engine/report"
)

// TestRunKeyedCLI: the keyed flag family routes a single run through the
// sharded service layer and the text report surfaces the key dimension.
func TestRunKeyedCLI(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-algo", "central", "-keys", "16", "-shards", "2", "-n", "8",
		"-ops", "300", "-verify", "-format", "text"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"svc(central[2])", "16 keys over 2 shards", "keyed verification"} {
		if !strings.Contains(b.String(), frag) {
			t.Fatalf("keyed text report missing %q:\n%s", frag, b.String())
		}
	}
}

// TestRunKeyedMigrationCLI: a -migrate run reports the cutover and the
// per-key JSON carries the hot key's final shard.
func TestRunKeyedMigrationCLI(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-algo", "central", "-keys", "8", "-shards", "2", "-n", "8",
		"-key-zipf-s", "1.5", "-migrate", "combining@hot=0.3/every=64", "-mean-gap", "1",
		"-ops", "600", "-verify"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	var res engine.Result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Migrations) != 1 || res.Migrations[0].Key != 0 {
		t.Fatalf("migrations = %+v, want one cutover of key 0", res.Migrations)
	}
	if res.Shards != 3 {
		t.Fatalf("shards = %d, want 2 homes + 1 hot", res.Shards)
	}
	if res.PerKey[0].Shard != 2 {
		t.Fatalf("hot key finished on shard %d, want the hot shard 2", res.PerKey[0].Shard)
	}
}

// TestRunKeyedFaultsCLI: -faults composes with the keyed flags — every shard
// runs under the plan, the lost messages wedge operations visibly, and the
// keyed verification excuses what the faults explain.
func TestRunKeyedFaultsCLI(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-algo", "central", "-keys", "8", "-shards", "2", "-n", "8",
		"-ops", "300", "-faults", "loss:0.1", "-verify"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	var res engine.Result
	if err := json.Unmarshal([]byte(b.String()), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{`"faults"`, `"wedged"`} {
		if !strings.Contains(b.String(), key) {
			t.Fatalf("keyed fault run's JSON carries no %s:\n%s", key, b.String())
		}
	}
	if res.Faults == nil || res.Faults.Lost == 0 || res.Wedged == 0 {
		t.Fatalf("faults %+v, wedged %d: want lost messages and wedged operations", res.Faults, res.Wedged)
	}
	if res.Ops+res.Wedged+res.Unserved != 300 || res.KeyedVerification == nil || res.Verification.Violations != 0 {
		t.Fatalf("ops %d + wedged %d + unserved %d of 300, verification %+v",
			res.Ops, res.Wedged, res.Unserved, res.Verification)
	}
}

// TestKeyedFlagValidation: the keyed flag family's incompatibilities are
// rejected before any simulation runs.
func TestKeyedFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-keys", "0"}, "need -keys >= 1"},
		{[]string{"-shards", "0"}, "need -shards >= 1"},
		{[]string{"-keys", "8", "-scenario", "adversarial"}, "adversarial"},
		{[]string{"-sweep", "-keys", "8"}, "-keys does not compose with -sweep"},
		{[]string{"-study", "scaling", "-keys", "8"}, "does not compose with -study"},
		{[]string{"-study", "skew", "-algos", "central"}, "ignored by -study skew"},
		{[]string{"-study", "skew", "-mode", "open"}, "closed-loop experiment"},
		{[]string{"-keys", "8", "-migrate", "combining@hot=2"}, "not a share"},
		{[]string{"-keys", "8", "-migrate", "@hot=0.2"}, "missing target algorithm"},
		{[]string{"-keys", "8", "-migrate", "cnet@warm=1"}, "unknown clause"},
	}
	for _, tc := range cases {
		var b strings.Builder
		err := run(tc.args, &b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestParseMigrateSpec: the tuning clauses parse into the migration
// config, defaults untouched when absent.
func TestParseMigrateSpec(t *testing.T) {
	m, err := parseMigrateSpec("cnet@hot=0.25/every=128/max=2")
	if err != nil {
		t.Fatal(err)
	}
	if m.To != "cnet" || m.HotShare != 0.25 || m.CheckEvery != 128 || m.MaxMoves != 2 {
		t.Fatalf("parsed %+v", m)
	}
	m, err = parseMigrateSpec("difftree")
	if err != nil || m.To != "difftree" || m.HotShare != 0 {
		t.Fatalf("bare spec parsed %+v, %v", m, err)
	}
	if m, err := parseMigrateSpec(""); m != nil || err != nil {
		t.Fatalf("empty spec = %+v, %v", m, err)
	}
}

// TestSkewStudy: the packaged study runs its full grid deterministically,
// verifies every cell, and lands the headline verdict — adaptive placement
// matches the best static assignment at low skew and beats it once the
// hottest key saturates a central home shard.
func TestSkewStudy(t *testing.T) {
	text := func() string {
		var b strings.Builder
		if err := run([]string{"-study", "skew", "-format", "text"}, &b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := text()
	for _, frag := range []string{
		"verdict s=0.6: adaptive wins",
		"verdict s=1.2: adaptive wins",
		"verdict s=1.5: adaptive wins",
		"1 migration(s)",
		"static:cnet",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("skew study missing %q:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "verify failed") || strings.Contains(out, "SKIPPED") {
		t.Fatalf("skew study has unverified or skipped cells:\n%s", out)
	}
	if again := text(); again != out {
		t.Fatal("identical skew-study invocations produced different reports")
	}

	// The CSV form carries the keyed columns the analysis groups on.
	var b strings.Builder
	if err := run([]string{"-study", "skew", "-format", "csv"}, &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 13 { // header + 4 exponents x 3 assignments
		t.Fatalf("skew CSV has %d lines, want 13", len(lines))
	}
	if lines[0] != report.SweepCSVHeader {
		t.Fatalf("skew CSV header drifted: %q", lines[0])
	}
	// The adaptive cell reports 5 shards: 4 homes plus the dedicated hot
	// shard, with its one completed migration.
	if !strings.Contains(b.String(), ",zipf,1.20,5,central,cnet,1,") {
		t.Fatalf("adaptive s=1.2 row missing keyed columns:\n%s", b.String())
	}
}
