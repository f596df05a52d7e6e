// Package report renders and exports workload-engine results.
//
// Two shapes are covered. A single run (engine.Result) exports as an
// indented JSON document for programmatic use, as CSV of the
// bottleneck-load time series for plotting, and as a human-readable text
// summary for terminals, reusing the loadstat formatting conventions. A
// sweep — one run per cell of an algorithm x scenario x window x rate grid
// (loadgen -sweep) — exports as one merged CSV with a row per run, as a
// JSON array, or as a text table, replacing ad-hoc cross-run comparisons.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"distcount/internal/engine"
	"distcount/internal/loadstat"
)

// WriteJSON writes the full report as indented JSON.
func WriteJSON(w io.Writer, res *engine.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteCSV writes the bottleneck-load time series as CSV, one row per
// sample: sim_time, completed, bottleneck, bottleneck_load, mean_load,
// in_flight, queue_depth.
func WriteCSV(w io.Writer, res *engine.Result) error {
	if _, err := fmt.Fprintln(w, "sim_time,completed,bottleneck,bottleneck_load,mean_load,in_flight,queue_depth"); err != nil {
		return err
	}
	for _, s := range res.Series {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.3f,%d,%d\n",
			s.SimTime, s.Completed, s.Bottleneck, s.BottleneckLoad, s.MeanLoad, s.InFlight, s.QueueDepth); err != nil {
			return err
		}
	}
	return nil
}

// Render returns the human-readable text summary. Wall-clock results (rt
// backend) render in ns and ops/sec; simulated results in ticks and
// ops/tick.
func Render(res *engine.Result) string {
	var b strings.Builder
	tickU, rateU := "ticks", "ops/tick"
	if res.Wall {
		tickU, rateU = "ns", "ops/sec"
	}
	fmt.Fprintf(&b, "workload %s on %s, n=%d, %s loop\n", res.Scenario, res.Algorithm, res.N, res.Mode)
	if res.Wall {
		fmt.Fprintf(&b, "  backend    rt (mailboxes on a worker pool, wall clock; 1 tick = %d ns)\n", res.TickNs)
	}
	fmt.Fprintf(&b, "  ops        %d (%d warmup + %d measured), window %d (peak in flight %d)\n",
		res.Ops, res.Warmup, res.Measured, res.InFlight, res.PeakInFlight)
	if res.Keys > 0 {
		fmt.Fprintf(&b, "  service    %d keys over %d shards (%s)\n",
			res.Keys, res.Shards, strings.Join(res.ShardAlgos, ", "))
		for _, ev := range res.Migrations {
			fmt.Fprintf(&b, "    migrated key %d: shard %d -> %d after %d completions\n",
				ev.Key, ev.From, ev.To, ev.AtCompleted)
		}
		if hot := hottestKey(res.PerKey); hot != nil {
			fmt.Fprintf(&b, "    hottest key %d: %d ops on shard %d, mean latency %.1f %s\n",
				hot.Key, hot.Ops, hot.Shard, hot.MeanLatency, tickU)
		}
	}
	if res.Mode == engine.Open.String() {
		fmt.Fprintf(&b, "  admission  queue cap %d, peak depth %d, dropped %d of %d arrivals (drop rate %.3f)\n",
			res.QueueCap, res.PeakQueueDepth, res.Dropped, res.Arrivals, res.DropRate)
	}
	fmt.Fprintf(&b, "  makespan   %d %s (measure window opened at %d)\n", res.SimTime, tickU, res.MeasureStart)
	fmt.Fprintf(&b, "  throughput %.4f %s\n", res.Throughput, rateU)
	fmt.Fprintf(&b, "  latency    mean %.1f  p50 %.1f  p90 %.1f  p99 %.1f  max %d %s\n",
		res.Latency.Mean, res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.Max, tickU)
	fmt.Fprintf(&b, "  queueing   mean %.1f  p99 %.1f %s, service mean %.1f  p99 %.1f %s\n",
		res.QueueDelay.Mean, res.QueueDelay.P99, tickU, res.ServiceLatency.Mean, res.ServiceLatency.P99, tickU)
	if res.Wall {
		b.WriteString("  precision  latency quantiles and maxima of 65536 ns or more are rounded to 10 significant bits (within 0.1%); means are exact\n")
	}
	fmt.Fprintf(&b, "  messages   %d total, %d in measure window (%.2f per op)\n",
		res.Messages, res.Loads.TotalMessages, res.MessagesPerOp)
	b.WriteString(loadstat.FormatSummary("measured loads", res.Loads))
	if len(res.Series) > 0 {
		last := res.Series[len(res.Series)-1]
		fmt.Fprintf(&b, "  bottleneck trajectory: %d samples, final m_b=%d at processor %d\n",
			len(res.Series), last.BottleneckLoad, last.Bottleneck)
	}
	if res.Knee != nil {
		fmt.Fprintf(&b, "  saturation knee: %.4f %s offered (bucket %d, t=%d, %s: p99 %.1f vs baseline %.1f)\n",
			res.Knee.OfferedRate, rateU, res.Knee.Bucket, res.Knee.SimTime, res.Knee.Reason,
			res.Knee.P99, res.Knee.BaselineP99)
	} else if res.Mode == engine.Open.String() {
		b.WriteString("  saturation knee: not reached\n")
	}
	if f := res.Faults; f != nil {
		fmt.Fprintf(&b, "  faults     %d lost, %d duplicated, %d crash-dropped, %d crash-deferred, %d timers cancelled\n",
			f.Lost, f.Duplicated, f.CrashDropped, f.CrashDeferred, f.TimersCancelled)
		if res.Wedged > 0 || res.Unserved > 0 {
			fmt.Fprintf(&b, "    wedged %d ops (stalled forever by faults), %d requests unserved\n",
				res.Wedged, res.Unserved)
		}
	}
	if v := res.Verification; v != nil {
		fmt.Fprintf(&b, "  verification (%s): %d ops, %d violations (%d duplicates, %d gaps, %d order violations)\n",
			v.Property, v.Ops, v.Violations, v.Duplicates, v.Gaps, v.OrderViolations)
		if v.FaultsFired && v.Excused > 0 {
			fmt.Fprintf(&b, "    excused %d fault-attributable anomalies (injected faults fired; missing values are never excused)\n",
				v.Excused)
		}
		if v.First != "" {
			fmt.Fprintf(&b, "    first violation: %s\n", v.First)
		}
	}
	if kv := res.KeyedVerification; kv != nil {
		fmt.Fprintf(&b, "  keyed verification: %d shards, %d keys, %d (key, epoch) segments, %d migrated\n",
			len(kv.Shards), kv.Keys, kv.Segments, kv.MigratedKeys)
	}
	return b.String()
}

// hottestKey returns the per-key stat with the most completed operations
// (nil for an empty breakdown).
func hottestKey(perKey []engine.KeyStat) *engine.KeyStat {
	var hot *engine.KeyStat
	for i := range perKey {
		if hot == nil || perKey[i].Ops > hot.Ops {
			hot = &perKey[i]
		}
	}
	return hot
}

// SweepRow is one cell of a sweep grid: the run's result plus the grid
// coordinates that are not recorded inside engine.Result itself. A cell
// that failed to run carries the reason in Skipped and a Result holding
// only its grid coordinates — exporters always render it, so a sweep can
// never silently drop part of its grid.
type SweepRow struct {
	// MeanGap is the scenario's mean interarrival time for this cell.
	MeanGap int64 `json:"mean_gap"`
	// MergeWindow is the combining/diffraction merge window the cell's
	// counter was built with (registry.Config.Window). Recorded for every
	// cell; only the window-sensitive request-merging algorithms consume it.
	MergeWindow int64 `json:"merge_window"`
	// ServiceTime is the per-message processing cost the cell's network
	// was built with (0 = instantaneous), and ServiceDist the shape of its
	// distribution across processors ("flat" when uniform; heterogeneous
	// profiles such as "halfslow" or "straggler" scale some processors'
	// costs up — see loadgen -service-dist).
	ServiceTime int64  `json:"service_time"`
	ServiceDist string `json:"service_dist,omitempty"`
	// Backend is the execution backend the cell ran on: "" for the
	// discrete-event simulator (the default), "rt" for the wall-clock
	// runtime on real cores. rt rows carry ns-valued time fields and
	// ops/sec rates (Result.Wall is set).
	Backend string `json:"backend,omitempty"`
	// FaultSpec is the fault-injection spec the cell ran under, in the
	// loadgen -faults grammar ("" = fault-free). The fired-fault counters,
	// wedged operations and excused anomalies live on the embedded Result
	// (whose own Faults field would collide with a field named Faults here,
	// hence the distinct name).
	FaultSpec string `json:"fault_spec,omitempty"`
	// KeyDist and KeyZipfS describe a keyed cell's key-popularity draw
	// (workload.Config.KeyDist/KeyZipfS); empty/zero on single-counter
	// cells. The key and shard counts themselves live on the embedded
	// Result (Keys, Shards).
	KeyDist  string  `json:"key_dist,omitempty"`
	KeyZipfS float64 `json:"key_zipf_s,omitempty"`
	// ShardAlgo is a keyed cell's home-shard algorithm and Migrate the
	// hot-shard algorithm its migration targets ("" = static assignment).
	ShardAlgo string `json:"shard_algo,omitempty"`
	Migrate   string `json:"migrate,omitempty"`
	// Skipped is the reason this cell could not run (empty for completed
	// cells); its Result carries coordinates but no measurements.
	Skipped string `json:"skipped,omitempty"`
	*engine.Result
}

// SkippedRow builds the placeholder row for a sweep cell that failed to
// run, preserving the cell's grid coordinates for the exporters.
func SkippedRow(algo, scenario string, mode engine.Mode, n, window int, gap, service, mergeWindow int64, reason error) SweepRow {
	return SweepRow{
		MeanGap:     gap,
		MergeWindow: mergeWindow,
		ServiceTime: service,
		Skipped:     reason.Error(),
		Result: &engine.Result{
			Algorithm: algo,
			Scenario:  scenario,
			Mode:      mode.String(),
			N:         n,
			InFlight:  window,
		},
	}
}

// SweepCSVHeader is the column list of WriteSweepCSV, one row per run.
const SweepCSVHeader = "algo,scenario,mode,backend,n,ops,inflight,merge_window,mean_gap,service_time,service_dist,queue_cap,faults," +
	"throughput,latency_p50,latency_p90,latency_p99,latency_max," +
	"queue_p50,queue_p99,arrivals,dropped,drop_rate,peak_queue_depth," +
	"messages,msgs_per_op,bottleneck,max_load,mean_load,gini,knee_rate,knee_reason," +
	"verify_property,verify_violations,verify_duplicates,verify_excused,epsilon," +
	"wedged,unserved,fault_lost,fault_dup,fault_crash_dropped," +
	"keys,key_dist,key_zipf_s,shards,shard_algo,migrate,migrations,skipped"

// WriteSweepCSV writes the sweep as one merged CSV, a row per run, with
// the SweepCSVHeader columns. Runs that never saturate leave knee_rate and
// knee_reason empty; runs without verification leave the verify_* columns
// empty; fault-free rows leave the fault_* columns empty; skipped cells
// carry their reason in the final column (commas and newlines replaced so
// the row stays one record).
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	if _, err := fmt.Fprintln(w, SweepCSVHeader); err != nil {
		return err
	}
	for _, r := range rows {
		kneeRate, kneeReason := "", ""
		if r.Knee != nil {
			kneeRate = fmt.Sprintf("%.4f", r.Knee.OfferedRate)
			kneeReason = r.Knee.Reason
		}
		vProp, vViol, vDup, vExc, vEps := "", "", "", "", ""
		if v := r.Verification; v != nil {
			vProp = v.Property
			vViol = fmt.Sprintf("%d", v.Violations)
			vDup = fmt.Sprintf("%d", v.Duplicates)
			vExc = fmt.Sprintf("%d", v.Excused)
			if v.Epsilon > 0 {
				vEps = fmt.Sprintf("%g", v.Epsilon)
			}
		}
		fLost, fDup, fCrash := "", "", ""
		if f := r.Result.Faults; f != nil {
			fLost = fmt.Sprintf("%d", f.Lost)
			fDup = fmt.Sprintf("%d", f.Duplicated)
			fCrash = fmt.Sprintf("%d", f.CrashDropped)
		}
		keys, zipfS, shards, migrations := "", "", "", ""
		if r.Keys > 0 {
			keys = fmt.Sprintf("%d", r.Keys)
			shards = fmt.Sprintf("%d", r.Shards)
			migrations = fmt.Sprintf("%d", len(r.Result.Migrations))
			if r.KeyZipfS > 0 {
				zipfS = fmt.Sprintf("%.2f", r.KeyZipfS)
			}
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%s,%d,%s,%.4f,%.1f,%.1f,%.1f,%d,%.1f,%.1f,%d,%d,%.4f,%d,%d,%.3f,%d,%d,%.3f,%.4f,%s,%s,%s,%s,%s,%s,%s,%d,%d,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s\n",
			r.Algorithm, r.Scenario, r.Mode, backendLabel(r.Backend), r.N, r.Ops, r.InFlight, r.MergeWindow, r.MeanGap, r.ServiceTime, r.ServiceDist, r.QueueCap, csvField(r.FaultSpec),
			r.Throughput, r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max,
			r.QueueDelay.P50, r.QueueDelay.P99, r.Arrivals, r.Dropped, r.DropRate, r.PeakQueueDepth,
			r.Messages, r.MessagesPerOp, r.Loads.Bottleneck, r.Loads.MaxLoad, r.Loads.Mean, r.Loads.Gini,
			kneeRate, kneeReason, vProp, vViol, vDup, vExc, vEps,
			r.Wedged, r.Unserved, fLost, fDup, fCrash,
			keys, r.KeyDist, zipfS, shards, r.ShardAlgo, r.Migrate, migrations, csvField(r.Skipped)); err != nil {
			return err
		}
	}
	return nil
}

// backendLabel normalizes a SweepRow backend for the CSV: the simulator's
// empty default renders as "sim" so the column is never blank.
func backendLabel(b string) string {
	if b == "" {
		return "sim"
	}
	return b
}

// csvField makes an arbitrary message safe as one unquoted CSV field:
// separators and record breaks become semicolons, and double quotes —
// common in Go error text via %q — become single quotes so RFC-4180
// readers do not reject the row as a bare quote in an unquoted field.
func csvField(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ',', '\n', '\r':
			return ';'
		case '"':
			return '\''
		}
		return r
	}, s)
}

// WriteSweepJSON writes the sweep as an indented JSON array, one element
// per run (full engine.Result plus grid coordinates).
func WriteSweepJSON(w io.Writer, rows []SweepRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// RenderSweep returns a text table of the sweep, one line per run. Skipped
// cells render with their reason instead of measurements, and failed
// verifications flag their violation count. rt-backend rows report
// throughput in ops/sec and p99 in ns (Result.Wall); sim rows in ops/tick
// and ticks.
func RenderSweep(rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-10s %-6s %-4s %6s %5s %6s %5s %12s %10s %9s %7s %8s %14s %12s %s\n",
		"algo", "scenario", "mode", "back", "window", "mwin", "gap", "n", "thruput", "p99", "m_b", "msg/op", "dropped", "knee", "verify", "faults")
	for _, r := range rows {
		back := r.Backend
		if back == "" {
			back = "sim"
		}
		if r.Skipped != "" {
			fmt.Fprintf(&b, "%-16s %-10s %-6s %-4s %6d %5d %6d %5d SKIPPED: %s\n",
				r.Algorithm, r.Scenario, r.Mode, back, r.InFlight, r.MergeWindow, r.MeanGap, r.N, r.Skipped)
			continue
		}
		knee := "-"
		if r.Knee != nil {
			knee = fmt.Sprintf("%.3f/%s", r.Knee.OfferedRate, r.Knee.Reason)
			if r.Wall {
				knee = fmt.Sprintf("%.0f/%s", r.Knee.OfferedRate, r.Knee.Reason)
			}
		}
		vcol := "-"
		if v := r.Verification; v != nil {
			switch {
			case v.Violations > 0:
				vcol = fmt.Sprintf("FAIL:%d", v.Violations)
			case v.Excused > 0:
				vcol = fmt.Sprintf("pass+%dexc", v.Excused)
			case v.Duplicates > 0:
				vcol = fmt.Sprintf("pass+%ddup", v.Duplicates)
			default:
				vcol = "pass"
			}
		}
		fcol := "-"
		if r.FaultSpec != "" {
			fcol = r.FaultSpec
			if r.Result.Wedged > 0 {
				fcol = fmt.Sprintf("%s(w%d)", r.FaultSpec, r.Result.Wedged)
			}
		}
		fmt.Fprintf(&b, "%-16s %-10s %-6s %-4s %6d %5d %6d %5d %12.4f %10.1f %9d %7.2f %8d %14s %12s %s\n",
			r.Algorithm, r.Scenario, r.Mode, back, r.InFlight, r.MergeWindow, r.MeanGap, r.N,
			r.Throughput, r.Latency.P99, r.Loads.MaxLoad, r.MessagesPerOp, r.Dropped, knee, vcol, fcol)
	}
	return b.String()
}
