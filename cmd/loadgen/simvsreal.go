package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"distcount/internal/engine"
	"distcount/internal/engine/report"
	"distcount/internal/rt"
)

// The simvsreal study is the calibration experiment for the rt backend
// (docs/EXPERIMENTS.md §8): the same open-loop ramprate grid runs once on
// the discrete-event simulator and once on the rt runtime (real cores,
// wall clock), and the study reports, per (algorithm, n) cell, whether the
// simulator's saturation knee predicts the hardware knee. The conversion
// is the tick scale: a sim knee of k ops/tick predicts k * 1e9 / tick_ns
// ops/sec on hardware where one simulated tick of service cost is emulated
// as tick_ns of real work. Where the ratio of measured to predicted leaves
// [1/2, 2], the simulator's cost model and the hardware disagree — the
// interesting rows.

// simVsRealProbeOps sizes the calibration probe: long enough for a stable
// throughput estimate, short enough that the merging schemes (which wait
// out a real merge window per tree level) finish the probe in well under a
// second.
const simVsRealProbeOps = 800

// simVsRealRow is one (algorithm, n) comparison: the sim knee in ops/tick,
// its ops/sec prediction at the rt tick scale, the measured rt knee and
// throughput in ops/sec, and the verdict.
type simVsRealRow struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	// TickNs is the rt cell's wall-clock tick duration — the sim-to-real
	// conversion factor.
	TickNs int64 `json:"tick_ns"`
	// SimKneeRate is the simulator's knee in ops/tick (0 = never
	// saturated); PredictedRate is that knee scaled to ops/sec.
	SimKneeRate   float64 `json:"sim_knee_rate"`
	SimKneeReason string  `json:"sim_knee_reason,omitempty"`
	PredictedRate float64 `json:"predicted_rate"`
	// RTKneeRate is the measured hardware knee in ops/sec (0 = never
	// saturated); RTThroughput is the closed-loop probe's sustained
	// ops/sec — the headline real-hardware capacity, measured without an
	// offered-rate assumption.
	RTKneeRate   float64 `json:"rt_knee_rate"`
	RTKneeReason string  `json:"rt_knee_reason,omitempty"`
	RTThroughput float64 `json:"rt_throughput"`
	// Ratio is measured/predicted when both knees exist; Verdict classifies
	// the row (predicts, sim-overpredicts, sim-underpredicts,
	// sim-only-knee, hardware-only-knee, unsaturated, skipped).
	Ratio   float64 `json:"ratio,omitempty"`
	Verdict string  `json:"verdict"`
}

// simVsRealGrid is one ramp cell per (algorithm, actual size), algorithms in
// name order, on the simulator, followed by the rt twin of each in the same
// order — so rows[i] and rows[len(rows)/2+i] are the same coordinate. The rt
// cells measure wall-clock capacity on real cores, so the runner takes them
// one at a time once the sim cells are done.
func simVsRealGrid(opt options, algos []string, ns, _ []int) ([]cell, error) {
	algos = slices.Clone(algos)
	slices.Sort(algos)
	var cells []cell
	for _, algo := range algos {
		cells = append(cells, sizeAxis(opt, algo, ns)...)
	}
	for _, c := range slices.Clone(cells) {
		c.opt.backend, c.calibrate = "rt", true
		cells = append(cells, c)
	}
	return cells, nil
}

// calibrateRamp fits an rt cell's ramp to the hardware before it is swept:
// a short closed-loop probe measures the sustained ops/sec, and the ramp
// then brackets that capacity. The sim knee is no anchor here — when the
// cost model and the hardware disagree by an order of magnitude (timer and
// scheduler overhead the simulator does not charge for), a ramp anchored
// on the prediction parks the real knee inside the first rate bucket,
// where the detector has no pre-saturation reference. A probe that fails
// leaves the cell uncalibrated: it ramps over the study default.
func calibrateRamp(c *cell) {
	probe := c.opt
	probe.mode, probe.ops, probe.warmup = engine.Closed, simVsRealProbeOps, -1
	res, err := runOne(probe, c.algo, "uniform")
	if err != nil || res.Throughput <= 0 {
		return
	}
	c.probe = res.Throughput
	capTicks := res.Throughput * float64(res.TickNs) / 1e9
	c.opt.rateFrom, c.opt.rateTo = capTicks/4, capTicks*4
}

// simVsRealDigest merges each coordinate's sim and rt rows into a verdict.
// The text form leads with the per-cell table; the JSON form carries every
// cell row next to the comparison.
func simVsRealDigest(_ options, cells []cell, rows []report.SweepRow) (document, error) {
	half := len(rows) / 2
	comps := make([]simVsRealRow, half)
	for i := range comps {
		comps[i] = compareSimVsReal(rows[i], rows[half+i], cells[half+i].probe)
	}
	return document{
		csv:  func(w io.Writer) error { return writeSimVsRealCSV(w, comps) },
		text: func() string { return report.RenderSweep(rows) + renderSimVsReal(comps) },
		json: func(w io.Writer) error {
			return writeJSON(w, struct {
				Study      string            `json:"study"`
				Cells      []report.SweepRow `json:"cells"`
				Comparison []simVsRealRow    `json:"comparison"`
			}{"simvsreal", rows, comps})
		},
	}, nil
}

// compareSimVsReal merges one coordinate's sim and rt rows into a verdict.
func compareSimVsReal(simR, rtR report.SweepRow, probeThr float64) simVsRealRow {
	row := simVsRealRow{Algorithm: simR.Algorithm, N: simR.N,
		TickNs: int64(rt.DefaultTick), RTThroughput: probeThr}
	if rtR.Skipped == "" {
		if rtR.TickNs > 0 {
			row.TickNs = rtR.TickNs
		}
		row.N = rtR.N
		row.RTKneeRate, row.RTKneeReason = knee(rtR)
	}
	if simR.Skipped == "" && simR.Knee != nil {
		row.SimKneeRate, row.SimKneeReason = knee(simR)
		row.PredictedRate = row.SimKneeRate * 1e9 / float64(row.TickNs)
	}
	switch {
	case simR.Skipped != "" || rtR.Skipped != "":
		row.Verdict = "skipped"
	case row.SimKneeRate == 0 && row.RTKneeRate == 0:
		row.Verdict = "unsaturated"
	case row.SimKneeRate == 0:
		// Real hardware saturated inside a ramp the model survived: a cost
		// the simulator does not charge for (scheduling, mailbox overhead).
		row.Verdict = "hardware-only-knee"
	case row.RTKneeRate == 0:
		row.Verdict = "sim-only-knee"
	default:
		row.Ratio = row.RTKneeRate / row.PredictedRate
		switch {
		case row.Ratio >= 0.5 && row.Ratio <= 2:
			row.Verdict = "predicts"
		case row.Ratio < 0.5:
			row.Verdict = "sim-overpredicts"
		default:
			row.Verdict = "sim-underpredicts"
		}
	}
	return row
}

// simVsRealCSVHeader is the column list of writeSimVsRealCSV.
const simVsRealCSVHeader = "algo,n,tick_ns,sim_knee_rate,sim_knee_reason,predicted_rate," +
	"rt_knee_rate,rt_knee_reason,rt_throughput,ratio,verdict"

// writeSimVsRealCSV writes one comparison row per (algorithm, n) cell.
func writeSimVsRealCSV(w io.Writer, comps []simVsRealRow) error {
	if _, err := fmt.Fprintln(w, simVsRealCSVHeader); err != nil {
		return err
	}
	for _, c := range comps {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%.4f,%s,%.0f,%.0f,%s,%.0f,%.3f,%s\n",
			c.Algorithm, c.N, c.TickNs, c.SimKneeRate, c.SimKneeReason, c.PredictedRate,
			c.RTKneeRate, c.RTKneeReason, c.RTThroughput, c.Ratio, c.Verdict); err != nil {
			return err
		}
	}
	return nil
}

// renderSimVsReal returns the human-readable comparison table.
func renderSimVsReal(comps []simVsRealRow) string {
	var b strings.Builder
	b.WriteString("\nsim-vs-real knee comparison (predicted = sim knee in ops/tick scaled to ops/sec at the rt tick)\n")
	fmt.Fprintf(&b, "%-16s %4s %8s %14s %16s %16s %16s %7s %-20s\n",
		"algo", "n", "tick_ns", "sim-knee", "predicted/s", "rt-knee/s", "rt-thruput/s", "ratio", "verdict")
	for _, c := range comps {
		fmt.Fprintf(&b, "%-16s %4d %8d %14s %16s %16s %16.0f %7s %-20s\n",
			c.Algorithm, c.N, c.TickNs,
			kneeCol(c.SimKneeRate, c.SimKneeReason, "%.3f"),
			rateCol(c.PredictedRate),
			kneeCol(c.RTKneeRate, c.RTKneeReason, "%.0f"),
			c.RTThroughput, ratioCol(c.Ratio), c.Verdict)
	}
	return b.String()
}

// kneeCol formats a knee rate/reason pair, "-" when absent.
func kneeCol(rate float64, reason, f string) string {
	if rate <= 0 {
		return "-"
	}
	s := fmt.Sprintf(f, rate)
	if reason != "" {
		s += "/" + reason
	}
	return s
}

// rateCol formats an ops/sec rate, "-" when absent.
func rateCol(rate float64) string {
	if rate <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", rate)
}

// ratioCol formats the measured/predicted ratio, "-" when undefined.
func ratioCol(r float64) string {
	if r <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", r)
}
