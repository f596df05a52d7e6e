package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"distcount/internal/registry"
	"distcount/internal/sim"
)

// TestParseFaultSpec: every clause kind parses into the plan field it
// names, and every malformed clause is a flag error naming -faults.
func TestParseFaultSpec(t *testing.T) {
	accept := []struct {
		spec string
		want sim.FaultPlan
	}{
		{"loss:0.01", sim.FaultPlan{Loss: 0.01}},
		{"dup:0.5", sim.FaultPlan{Dup: 0.5}},
		{"dropnth:2@every=5", sim.FaultPlan{DropNth: []sim.NthRule{{Proc: 2, Every: 5}}}},
		{"dupnth:0@every=1", sim.FaultPlan{DupNth: []sim.NthRule{{Proc: 0, Every: 1}}}},
		{"crash:1@t=500", sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 1, From: 500}}}},
		{"crash:3@t=0-900", sim.FaultPlan{Crashes: []sim.Downtime{{Proc: 3, From: 0, To: 900}}}},
		{"churn:2@every=400/down=100", sim.FaultPlan{Churn: &sim.ChurnSpec{Procs: 2, Period: 400, Down: 100}}},
		{"churn:1@every=7/down=7", sim.FaultPlan{Churn: &sim.ChurnSpec{Procs: 1, Period: 7, Down: 7}}},
		{" loss:0.01 , crash:1@t=500 ,, freeze , seed:7 ", sim.FaultPlan{Loss: 0.01, Freeze: true, Seed: 7,
			Crashes: []sim.Downtime{{Proc: 1, From: 500}}}},
		{"crash:1@t=5,crash:2@t=6-9,dropnth:1@every=2,dropnth:2@every=3", sim.FaultPlan{
			Crashes: []sim.Downtime{{Proc: 1, From: 5}, {Proc: 2, From: 6, To: 9}},
			DropNth: []sim.NthRule{{Proc: 1, Every: 2}, {Proc: 2, Every: 3}}}},
	}
	for _, tc := range accept {
		got, err := parseFaultSpec(tc.spec)
		if err != nil {
			t.Errorf("parseFaultSpec(%q): %v", tc.spec, err)
			continue
		}
		if !samePlan(*got, tc.want) {
			t.Errorf("parseFaultSpec(%q) = %+v, want %+v", tc.spec, *got, tc.want)
		}
	}
	for _, spec := range []string{"", "  "} {
		if plan, err := parseFaultSpec(spec); plan != nil || err != nil {
			t.Errorf("parseFaultSpec(%q) = %v, %v, want no plan", spec, plan, err)
		}
	}
	for _, spec := range []string{
		"nope", "loss", "loss:", "loss:x", "loss:-0.1", "loss:1", "dup:1.5",
		"loss:NaN", "dup:nan", "loss:Inf", "loss:0", // 0 schedules nothing
		"freeze", "seed:7", "freeze,seed:7", "freeze:1,loss:0.1", "seed:-1,loss:0.1", "seed:x,loss:0.1",
		"dropnth:2", "dropnth:x@every=5", "dropnth:-1@every=5", "dropnth:2@each=5", "dropnth:2@every=0", "dupnth:2@every=x",
		"crash:1", "crash:0@t=5", "crash:x@t=5", "crash:1@at=5", "crash:1@t=-5", "crash:1@t=x", "crash:1@t=9-9", "crash:1@t=9-5", "crash:1@t=5-x",
		"churn:2", "churn:0@every=4/down=1", "churn:2@every=4", "churn:2@period=4/down=1", "churn:2@every=0/down=1",
		"churn:2@every=4/up=1", "churn:2@every=4/down=0", "churn:2@every=4/down=5",
		"churn:1@every=4/down=1,churn:2@every=4/down=1",
	} {
		if plan, err := parseFaultSpec(spec); err == nil || !strings.HasPrefix(err.Error(), "-faults") {
			t.Errorf("parseFaultSpec(%q) = %+v, %v, want a -faults error", spec, plan, err)
		}
	}
}

// samePlan compares two plans field by field (FaultPlan holds slices and a
// pointer, so == does not apply).
func samePlan(a, b sim.FaultPlan) bool {
	churn := (a.Churn == nil) == (b.Churn == nil) && (a.Churn == nil || *a.Churn == *b.Churn)
	return a.Seed == b.Seed && a.Loss == b.Loss && a.Dup == b.Dup && a.Freeze == b.Freeze && churn &&
		slices.Equal(a.DropNth, b.DropNth) && slices.Equal(a.DupNth, b.DupNth) && slices.Equal(a.Crashes, b.Crashes)
}

// TestNonFiniteFlagsRejected: strconv.ParseFloat accepts NaN and ±Inf, and
// NaN compares false against every range check — so each float knob must
// reject them explicitly, before anything runs.
func TestNonFiniteFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "loss:NaN"},
		{"-faults", "dup:NaN"},
		{"-keys", "8", "-migrate", "cnet@hot=NaN"},
		{"-epsilon", "NaN"},
		{"-epsilon", "+Inf", "-algo", "gxu-threshold"},
		{"-keys", "8", "-key-zipf-s", "NaN"},
		{"-scenario", "zipf", "-zipf-s", "NaN"},
		{"-scenario", "hotspot", "-hot-frac", "NaN"},
		{"-scenario", "hotspot", "-hot-prob", "-Inf"},
		{"-scenario", "ramprate", "-mode", "open", "-rate-from", "NaN"},
		{"-scenario", "ramprate", "-mode", "open", "-rate-to", "NaN"},
		{"-study", "scaling", "-rate-to", "NaN"},
	} {
		var b strings.Builder
		if err := run(append(args, "-n", "8", "-ops", "50"), &b); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// FuzzParseFaultSpec: the -faults grammar never panics, and a spec it
// accepts is a plan the simulator installs without tripping its own
// validation — probabilities finite and in [0,1), every rule well formed.
func FuzzParseFaultSpec(f *testing.F) {
	for _, spec := range faultStudyPlans {
		f.Add(spec)
	}
	for _, spec := range []string{fpLossSpec, fpCrashSpec, "loss:0.01,crash:1@t=500,freeze", "dup:0.01",
		"dropnth:2@every=5", "dupnth:2@every=5", "crash:1@t=500-900", "seed:7,loss:0.5", "loss:NaN", "dup:1e-400"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := parseFaultSpec(spec)
		if err != nil || plan == nil {
			return
		}
		for _, p := range []float64{plan.Loss, plan.Dup} {
			if math.IsNaN(p) || p < 0 || p >= 1 {
				t.Fatalf("parseFaultSpec(%q) accepted probability %v", spec, p)
			}
		}
		if plan.Empty() {
			t.Fatalf("parseFaultSpec(%q) accepted a plan that schedules nothing", spec)
		}
		// The path a run takes: registry → sim.WithFaults → FaultPlan.validate.
		cfg := registry.Concurrent()
		cfg.Faults = plan
		if _, err := registry.NewWith("central", 4, cfg); err != nil {
			t.Fatalf("plan of %q does not install: %v", spec, err)
		}
	})
}

// FuzzParseMigrateSpec: the -migrate grammar never panics, and a spec it
// accepts names a target and tunes the detector only inside its domain.
func FuzzParseMigrateSpec(f *testing.F) {
	for _, spec := range []string{skewMigrateSpec, "combining", "combining@hot=0.2/every=256/max=1",
		"cnet@hot=0.25", "cnet@hot=NaN", "@hot=0.2", "cnet@warm=1", "cnet@hot=1e-400", ""} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := parseMigrateSpec(spec)
		if err != nil || m == nil {
			if err == nil && spec != "" {
				t.Fatalf("parseMigrateSpec(%q) returned no migration and no error", spec)
			}
			return
		}
		// Zero means "not given" (countersvc applies its default) for all three knobs.
		if m.To == "" || math.IsNaN(m.HotShare) || m.HotShare < 0 || m.HotShare > 1 || m.CheckEvery < 0 || m.MaxMoves < 0 {
			t.Fatalf("parseMigrateSpec(%q) accepted %+v", spec, *m)
		}
	})
}
