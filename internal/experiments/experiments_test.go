package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"distcount/internal/core"
	"distcount/internal/quorum"
	"distcount/internal/sim"
)

// allFullSHA256 is the sha256 of RunAll(Config{}) — `paper exp -all`, 38 KB
// — as the fourteen hand-rolled experiment files printed it at PR 17, except
// in two places: E9's reckless row (threshold 2 at k = 3) forwards 98
// messages, since a node's neighbour table merges new-ids by maximum (a
// node that retires twice in one operation can have its two new-ids reach a
// child out of order, and the stale one does not win); and E12's totals,
// in the quick report too, charge the counter value a root handoff carries
// (449 → 456 bits at k = 2, 8029 → 8102 at k = 3, 211289 → 212483 at
// k = 4; the maxima are unchanged).
const allFullSHA256 = "8a7e84d60e49568f613dca690a20826ac9fed5ce5ca7553e28551a54e8f8fd09"

// TestExperimentGoldens: every experiment is a pure function of the code
// (deterministic simulator, fixed seeds), so both reports are pinned byte
// for byte — the quick one against testdata/all_quick.txt, taken from the
// PR 17 binaries before the experiments moved onto the shared sweep kernel,
// and the full one (≈17 s, skipped under -short) by hash. After an
// intentional output change, refresh with
//
//	go run ./cmd/paper exp -all -quick > internal/experiments/testdata/all_quick.txt
//
// and paste the hash this test prints.
func TestExperimentGoldens(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		want, err := os.ReadFile("testdata/all_quick.txt")
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunAll(Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("RunAll(quick) differs from testdata/all_quick.txt:\n%s", got)
		}
	})
	t.Run("full", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs every experiment at full size")
		}
		t.Parallel()
		got, err := RunAll(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(got))); sum != allFullSHA256 {
			t.Errorf("RunAll(full) hashes to %s, want %s", sum, allFullSHA256)
		}
	})
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if len(seen) != 14 {
		t.Fatalf("have %d experiments, want 14", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E4"); !ok {
		t.Fatal("E4 not found")
	}
	if _, ok := ByID("e4"); !ok {
		t.Fatal("lookup must be case-insensitive")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 found")
	}
}

func TestRunAllQuick(t *testing.T) {
	out, err := RunAll(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(out, "=== "+e.ID+":") {
			t.Fatalf("RunAll output missing %s", e.ID)
		}
	}
}

func TestE1RendersBothFigures(t *testing.T) {
	out, err := E1(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Figure 1", "Figure 2", "digraph inc", "participants"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("E1 output missing %q:\n%s", frag, out)
		}
	}
}

func TestE2ShowsAdversarySteps(t *testing.T) {
	out, err := E2(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"step 1:", "step 8:", "potential function", "m_b"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("E2 output missing %q", frag)
		}
	}
}

func TestE3ListsLevels(t *testing.T) {
	out, err := E3(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"level 0:", "level 2:", "retirements"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("E3 output missing %q", frag)
		}
	}
}

// TestE4BoundHolds: E4 returns an error if any algorithm's adversarial
// bottleneck falls below k(n) or a proof check fails, so a nil error IS the
// theorem check.
func TestE4BoundHolds(t *testing.T) {
	if _, err := E4(Config{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestE5RatioFlat: the measured bottleneck-to-k ratio of the tree counter
// stays within a tight band as n grows 10x (k=2 -> 3), the empirical form
// of O(k).
func TestE5RatioFlat(t *testing.T) {
	p2, err := RunTree(core.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := RunTree(core.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := float64(p2.Load.MaxLoad) / 2
	r3 := float64(p3.Load.MaxLoad) / 3
	if r2 > 25 || r3 > 25 {
		t.Fatalf("implementation constant too large: %v, %v", r2, r3)
	}
	if r3 > 1.5*r2 {
		t.Fatalf("ratio not flat: %v -> %v", r2, r3)
	}
	if p2.Violations != 0 || p3.Violations != 0 {
		t.Fatal("lemma violations in E5 points")
	}
}

// TestE6Crossover: by n=81 the tree counter undercuts the centralized
// counter and the majority quorum; the grid quorum sits between.
func TestE6Crossover(t *testing.T) {
	get := func(name string, n int) int64 {
		t.Helper()
		mb, _, err := E6Point(name, n)
		if err != nil {
			t.Fatal(err)
		}
		return mb
	}
	ctree, central := get("ctree", 81), get("central", 81)
	grid, majority := get("quorum-grid", 81), get("quorum-majority", 81)
	if ctree >= central {
		t.Fatalf("ctree %d not below central %d at n=81", ctree, central)
	}
	if ctree >= grid {
		t.Fatalf("ctree %d not below grid quorum %d at n=81", ctree, grid)
	}
	if grid >= majority {
		t.Fatalf("grid %d not below majority %d at n=81", grid, majority)
	}
}

func TestE7AllOk(t *testing.T) {
	out, err := E7(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "VIOLATED") {
		t.Fatalf("hot spot violations:\n%s", out)
	}
}

func TestE8WithinBounds(t *testing.T) {
	out, err := E8(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Number of Retirements") {
		t.Fatalf("E8 output incomplete:\n%s", out)
	}
}

// TestE9AblationShape at the full k=3 size: the paper threshold beats
// retirement-off by a clear margin, and the reckless threshold breaks the
// lemmas.
func TestE9AblationShape(t *testing.T) {
	const k = 3
	at := func(age int) TreeRun {
		t.Helper()
		r, err := RunTree(core.New(k, core.WithRetireAge(age)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	paper, off, reckless := at(4*k), at(0), at(2)
	if off.Load.MaxLoad <= 2*paper.Load.MaxLoad {
		t.Fatalf("retirement off (%d) not clearly above paper threshold (%d)", off.Load.MaxLoad, paper.Load.MaxLoad)
	}
	if paper.Violations != 0 || paper.Stats().PoolExhausted != 0 {
		t.Fatalf("paper threshold broke lemmas: %d violations, %+v", paper.Violations, paper.Stats())
	}
	if reckless.Violations == 0 && reckless.Stats().PoolExhausted == 0 {
		t.Fatal("reckless threshold broke nothing; ablation not discriminating")
	}
}

// TestE10ConcurrencyHelps: opening the window must cut the hot spot while
// keeping values distinct.
func TestE10ConcurrencyHelps(t *testing.T) {
	seq, err := E10Combining(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := E10Combining(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Distinct || !conc.Distinct {
		t.Fatal("combining produced duplicate values")
	}
	if conc.RootLoad >= seq.RootLoad {
		t.Fatalf("combining did not relieve the root: %d vs %d", conc.RootLoad, seq.RootLoad)
	}
	if conc.Merged == 0 {
		t.Fatal("no merges under concurrency")
	}

	dseq, err := E10Difftree(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	dconc, err := E10Difftree(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !dseq.Distinct || !dconc.Distinct {
		t.Fatal("difftree produced duplicate values")
	}
	if dconc.RootLoad >= dseq.RootLoad {
		t.Fatalf("diffraction did not relieve the root toggle: %d vs %d", dconc.RootLoad, dseq.RootLoad)
	}
}

// TestE12LogarithmicSizes: max message bits track log2(n), not n.
func TestE12LogarithmicSizes(t *testing.T) {
	p2, err := RunTree(core.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := RunTree(core.New(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	bits2, bits4 := p2.Net().MaxMessageBits(), p4.Net().MaxMessageBits()
	if bits2 == 0 || bits4 == 0 {
		t.Fatal("no size accounting")
	}
	nGrowth := float64(p4.N()) / float64(p2.N()) // 128x
	bitGrowth := float64(bits4) / float64(bits2)
	if bitGrowth > nGrowth/8 {
		t.Fatalf("message size grew %vx for %vx more processors", bitGrowth, nGrowth)
	}
	if log2N := sim.BitsFor(p4.N()); bits4 > 5*log2N {
		t.Fatalf("max message %d bits not within 5·log2(n) = %d", bits4, 5*log2N)
	}
}

// TestE13ScriptedScenario: the deterministic HSW schedule must break the
// counting network's linearizability while leaving the tree counter's
// intact. E13 itself errors if the scenario fails, so the full run is also
// asserted.
func TestE13ScriptedScenario(t *testing.T) {
	cviol, cvals, err := E13ScriptedCNet()
	if err != nil {
		t.Fatal(err)
	}
	if !cviol {
		t.Fatalf("counting network stayed linearizable under the stalled schedule (values %v)", cvals)
	}
	tviol, tvals, err := E13ScriptedTree()
	if err != nil {
		t.Fatal(err)
	}
	if tviol {
		t.Fatalf("tree counter violated linearizability (values %v)", tvals)
	}
	if _, err := E13(Config{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestE14Plateau: the centralized counter's running bottleneck grows
// linearly with the workload prefix; the tree counter's flattens.
func TestE14Plateau(t *testing.T) {
	checkpoints := []int{20, 81}
	central, err := E14Trajectory("central", 81, checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	ctree, err := E14Trajectory("ctree", 81, checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	// Central: ~2 messages per op at the holder across the whole run.
	if growth := central[1] - central[0]; growth < 100 {
		t.Fatalf("central bottleneck grew only %d over 61 ops", growth)
	}
	// Tree: the last three quarters of the run add almost nothing.
	if growth := ctree[1] - ctree[0]; growth > 10 {
		t.Fatalf("ctree bottleneck grew %d after the plateau (%v)", growth, ctree)
	}
}

// TestE11Shape: tree quorums smaller than majorities but with higher
// imbalance; singleton is the extreme bottleneck.
func TestE11Shape(t *testing.T) {
	const n = 100
	tree, err := E11Point(quorum.NewTree(n), n)
	if err != nil {
		t.Fatal(err)
	}
	maj, err := E11Point(quorum.NewMajority(n), n)
	if err != nil {
		t.Fatal(err)
	}
	single, err := E11Point(quorum.NewSingleton(n), n)
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxQuorum >= maj.MaxQuorum {
		t.Fatalf("tree quorums (%d) not smaller than majorities (%d)", tree.MaxQuorum, maj.MaxQuorum)
	}
	if tree.Gini <= maj.Gini {
		t.Fatalf("tree load (gini %v) not more concentrated than majority (%v)", tree.Gini, maj.Gini)
	}
	if single.MaxLoad != int64(n) {
		t.Fatalf("singleton bottleneck %d, want %d", single.MaxLoad, n)
	}
}
