package report

import (
	"bytes"
	"strings"
	"testing"

	"distcount/internal/countersvc"
	"distcount/internal/engine"
	"distcount/internal/registry"
	"distcount/internal/verify"
	"distcount/internal/workload"
)

// skewRow builds one synthetic skew-study row.
func skewRow(s, thru float64, shardAlgo, migrate string, migrations int) SweepRow {
	res := &engine.Result{
		Algorithm:    "svc(x)",
		Scenario:     "uniform",
		Mode:         "closed",
		Keys:         16,
		Shards:       3,
		Throughput:   thru,
		Verification: &verify.Report{},
	}
	for i := 0; i < migrations; i++ {
		res.Migrations = append(res.Migrations, countersvc.MigrationEvent{Key: 0})
	}
	return SweepRow{KeyDist: "zipf", KeyZipfS: s, ShardAlgo: shardAlgo, Migrate: migrate, Result: res}
}

// TestAnalyzeSkew: grouping by zipf exponent, best-static selection, and
// the adaptive-wins verdicts.
func TestAnalyzeSkew(t *testing.T) {
	rows := []SweepRow{
		skewRow(0.6, 3.0, "central", "", 0),
		skewRow(0.6, 1.5, "combining", "", 0),
		skewRow(0.6, 3.0, "central", "combining", 0), // no skew: never migrates, ties central
		skewRow(1.2, 2.0, "central", "", 0),
		skewRow(1.2, 1.6, "combining", "", 0),
		skewRow(1.2, 2.5, "central", "combining", 1),
	}
	a := AnalyzeSkew(rows)
	if len(a.Points) != 2 {
		t.Fatalf("%d skew points, want 2", len(a.Points))
	}
	low, high := a.Points[0], a.Points[1]
	if low.ZipfS != 0.6 || high.ZipfS != 1.2 {
		t.Fatalf("points out of order: %v, %v", low.ZipfS, high.ZipfS)
	}
	if low.BestStatic != "static:central" || low.BestStaticThroughput != 3.0 {
		t.Fatalf("low-skew best static = %s %.2f", low.BestStatic, low.BestStaticThroughput)
	}
	if !low.AdaptiveWins {
		t.Fatal("tie must count as adaptive holding the line (>=)")
	}
	if !high.AdaptiveWins || high.Adaptive != 2.5 {
		t.Fatalf("high-skew verdict wrong: %+v", high)
	}

	out := RenderSkew(a)
	for _, frag := range []string{"verdict s=1.2: adaptive wins", "static:central", "adaptive(central->combining)", "1 migration"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("skew digest missing %q:\n%s", frag, out)
		}
	}
}

// TestSweepCSVKeyedColumns: keyed rows fill the keys/shards columns and
// unkeyed rows leave them empty, with the header's column count intact.
func TestSweepCSVKeyedColumns(t *testing.T) {
	svc, err := countersvc.New(countersvc.Config{Keys: 8, N: 8, Shards: 2,
		Registry: registry.Config{Window: registry.DefaultWindow}})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New("uniform", workload.Config{N: 8, Ops: 120, Seed: 2, Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunKeyed(svc, gen, engine.Config{InFlight: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := []SweepRow{
		{MeanGap: 4, KeyDist: "zipf", KeyZipfS: 1.2, ShardAlgo: "central", Result: res},
		{MeanGap: 4, Result: &engine.Result{Algorithm: "central", Scenario: "uniform", Mode: "closed"}},
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	header := strings.Split(SweepCSVHeader, ",")
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != len(header)-1 {
			t.Fatalf("row has %d commas, want %d: %q", got, len(header)-1, line)
		}
	}
	keyed := strings.Split(lines[1], ",")
	if keyed[col("keys")] != "8" || keyed[col("shards")] != "2" || keyed[col("key_dist")] != "zipf" ||
		keyed[col("key_zipf_s")] != "1.20" || keyed[col("shard_algo")] != "central" || keyed[col("migrations")] != "0" {
		t.Fatalf("keyed columns wrong: %q", lines[1])
	}
	unkeyed := strings.Split(lines[2], ",")
	if unkeyed[col("keys")] != "" || unkeyed[col("shards")] != "" || unkeyed[col("migrations")] != "" {
		t.Fatalf("unkeyed row should leave keyed columns empty: %q", lines[2])
	}

	// The single-run text summary surfaces the service layer.
	text := Render(res)
	for _, frag := range []string{"service", "8 keys over 2 shards", "keyed verification"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("keyed text report missing %q:\n%s", frag, text)
		}
	}
}
