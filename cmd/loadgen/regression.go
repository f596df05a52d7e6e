package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"distcount/internal/engine/report"
)

// The regression study measures each algorithm's multi-metric performance
// fingerprint — the artifact behind the CI gate (docs/EXPERIMENTS.md §6).
// Per algorithm it runs a fixed cell grid:
//
//   - the knee-vs-n ramp cells of the scaling study over fpScalingNs (the
//     fpN cell doubles as the headline knee fingerprint), plus the
//     merge-window sub-sweep at the largest n for the window-sensitive
//     schemes — together they yield the scaling class;
//   - a steady cell at the fixed sub-knee rate fpSteadyRate, where service
//     p50/p99, messages/op, and the bottleneck's load share are clean
//     (the system is not overloaded, so the numbers are the algorithm's
//     intrinsic cost, not queueing artifacts);
//   - a queue cell: the same ramp under the tight admission queue
//     fpQueueCap, fingerprinting the "queue"-reason knee and the shed-load
//     fraction;
//   - a hetero cell: the same ramp under the fpHeteroDist service profile,
//     fingerprinting capacity on mixed hardware;
//   - a straggler cell: the same ramp under the fpStragglerDist profile
//     (one processor slowed hard), fingerprinting how much of the knee a
//     single slow machine takes from each scheme — adversarial for
//     root-bound topologies that cannot route around it.
//
// Everything is deterministic for a fixed seed, so a committed baseline
// reproduces bit for bit until the code's behavior actually changes.

// Fingerprint cell-grid constants. Changing any of these invalidates
// committed baselines — the values are recorded in the baseline document
// and diffed as config, so a stale baseline fails loudly.
const (
	// fpN is the requested network size of the knee/steady/queue/hetero
	// cells (structured algorithms round it up; the fingerprint records
	// the actual size).
	fpN = 16
	// fpSteadyRate is the fixed sub-knee offered rate of the steady cell,
	// in ops/tick — far below every algorithm's measured knee (the lowest,
	// the central counter's, sits near 1 op/tick at service 1).
	fpSteadyRate = 0.25
	// fpQueueCap is the queue cell's admission bound: small enough that
	// the ramp overflows it into drops well inside the swept range.
	fpQueueCap = 16
	// fpHeteroDist is the hetero cell's -service-dist profile.
	fpHeteroDist = "halfslow"
	// fpHeteroRateTo is the hetero cell's ramp ceiling. Slowing half the
	// processors 4x cuts capacity toward a quarter of the flat knee, and a
	// knee is only resolvable to one rate bucket's band — on the default
	// ramp to 8 the heterogeneous knee would fall inside the first
	// (baseline) bucket, where the detector has no pre-saturation
	// reference. A ceiling of 4 keeps every algorithm's halfslow knee in a
	// resolvable bucket while still crossing it.
	fpHeteroRateTo = 4
	// fpStragglerDist is the straggler cell's -service-dist profile: one
	// processor slowed 8x, the rest at the uniform cost.
	fpStragglerDist = "straggler"
	// fpStragglerRateTo is the straggler cell's ramp ceiling, lowered for
	// the same bucket-resolution reason as fpHeteroRateTo: a root-bound
	// scheme whose hot path lands on the straggler keeps only ~1/8 of its
	// flat capacity, which the default ramp's bucket width cannot resolve.
	fpStragglerRateTo = 4
	// fpLossSpec is the loss cell's fault plan (-faults grammar): i.i.d.
	// 2% message loss — heavy enough that every algorithm wedges some
	// initiators inside the ramp, light enough that the pre-wedge knee is
	// still resolvable for the cheap schemes.
	fpLossSpec = "loss:0.02"
	// fpCrashSpec is the crash cell's fault plan: processor 1 down forever
	// from tick 500 — mid-ramp. Processor 1 is the central counter's
	// serving site, so this is the adversarial robustness cell: central
	// wedges entirely while the replicated schemes keep serving.
	fpCrashSpec = "crash:1@t=500"
)

// fpScalingNs is the n axis of the embedded knee-vs-n curve. Smaller than
// the interactive scaling study's default (which tops at 64): three sizes
// are enough to fit the exponent and classify, and the gate runs on every
// push.
var fpScalingNs = []int{8, 16, 32}

// fpWindows is the merge-window sub-sweep of the embedded curve (the
// scaling study's default; pinned here and recorded in the baseline).
var fpWindows = []int{1, 4, 64}

// fpCells are the fingerprint cells every algorithm runs at fpN beyond the
// embedded scaling curve: the role the digest reads them by and what each
// changes on the base ramp. The fault cells verify (the study otherwise
// leaves -verify off): Excused is a verification measurement, and running
// the checker here also makes the gate assert, on every push, that no
// algorithm fails *silently* under the pinned plans — a non-excusable
// violation fails gateRows.
var fpCells = []struct {
	role string
	set  func(*options)
}{
	{"steady", func(o *options) { o.rateFrom, o.rateTo = fpSteadyRate, fpSteadyRate }},
	{"queue", func(o *options) { o.queueCap = fpQueueCap }},
	{"hetero", func(o *options) { o.svcDist, o.rateTo = fpHeteroDist, fpHeteroRateTo }},
	{"straggler", func(o *options) { o.svcDist, o.rateTo = fpStragglerDist, fpStragglerRateTo }},
	{"loss", func(o *options) { o.faults, o.verify = fpLossSpec, true }},
	{"crash", func(o *options) { o.faults, o.verify = fpCrashSpec, true }},
}

// regressionGrid lays out, per algorithm in name order, the scaling curve
// (size axis, then window axis at the largest n; the size-axis cell that
// builds fpN's network doubles as the "knee" cell) and the fpCells.
func regressionGrid(opt options, algos []string, _, _ []int) ([]cell, error) {
	algos = slices.Clone(algos)
	slices.Sort(algos)
	var cells []cell
	for _, algo := range algos {
		axis := sizeAxis(opt, algo, fpScalingNs)
		kneeSize := actualSize(algo, fpN)
		for i := range axis {
			if actualSize(algo, axis[i].opt.n) == kneeSize {
				axis[i].role = "knee"
			}
		}
		cells = append(cells, axis...)
		cells = append(cells, windowAxis(opt, algo, slices.Max(fpScalingNs), fpWindows)...)
		for _, fc := range fpCells {
			c := opt
			c.n = fpN
			fc.set(&c)
			cells = append(cells, cell{algo: algo, scen: "ramprate", role: fc.role, opt: c})
		}
	}
	return cells, nil
}

// knee returns a row's saturation knee, zero when the run never saturated.
func knee(r report.SweepRow) (rate float64, reason string) {
	if r.Knee == nil {
		return 0, ""
	}
	return r.Knee.OfferedRate, r.Knee.Reason
}

// regressionDigest folds the rows into one fingerprint per algorithm and
// then, by -baseline mode, renders them, records them to the baseline file
// or checks them against it; -artifacts additionally writes the JSON/CSV
// artifact files CI uploads.
func regressionDigest(opt options, cells []cell, rows []report.SweepRow) (document, error) {
	cur := &report.Baseline{
		Schema:          report.BaselineSchema,
		Study:           report.RegressionStudy,
		Seed:            opt.seed,
		Ops:             opt.ops,
		BaseWindow:      opt.window,
		Service:         opt.service,
		RateTo:          opt.rateTo,
		KneeBuckets:     opt.kneeBuckets,
		SteadyRate:      fpSteadyRate,
		QueueCap:        fpQueueCap,
		HeteroDist:      fpHeteroDist,
		HeteroRateTo:    fpHeteroRateTo,
		StragglerDist:   fpStragglerDist,
		StragglerRateTo: fpStragglerRateTo,
		LossSpec:        fpLossSpec,
		CrashSpec:       fpCrashSpec,
		ScalingNs:       slices.Clone(fpScalingNs),
		Windows:         slices.Clone(fpWindows),
	}
	var curve []report.SweepRow // the cells feeding report.AnalyzeScaling
	var f *report.Fingerprint
	for i, r := range rows {
		c := cells[i]
		if f == nil || f.Algorithm != c.algo {
			cur.Fingerprints = append(cur.Fingerprints, report.Fingerprint{Algorithm: c.algo})
			f = &cur.Fingerprints[len(cur.Fingerprints)-1]
		}
		if c.role == "" || c.role == "knee" {
			curve = append(curve, r)
		}
		if r.Skipped != "" {
			continue
		}
		excused := 0
		if r.Verification != nil {
			excused = r.Verification.Excused
		}
		switch c.role {
		case "knee":
			f.N = r.N
			f.KneeRate, f.KneeReason = knee(r)
		case "steady":
			// Sub-knee, so these are the algorithm's intrinsic costs, not
			// queueing artifacts.
			f.ServiceP50, f.ServiceP99 = r.ServiceLatency.P50, r.ServiceLatency.P99
			f.MessagesPerOp = r.MessagesPerOp
			if r.Loads.SumLoads > 0 {
				f.BottleneckShare = float64(r.Loads.MaxLoad) / float64(r.Loads.SumLoads)
			}
		case "queue":
			f.DropRate = r.DropRate
			f.QueueKneeRate, f.QueueKneeReason = knee(r)
		case "hetero":
			f.HeteroKneeRate, f.HeteroKneeReason = knee(r)
		case "straggler":
			f.StragglerKneeRate, f.StragglerKneeReason = knee(r)
		case "loss":
			f.LossKneeRate, f.LossKneeReason = knee(r)
			f.LossWedged, f.LossExcused = r.Result.Wedged, excused
		case "crash":
			f.CrashKneeRate, f.CrashKneeReason = knee(r)
			f.CrashWedged, f.CrashExcused = r.Result.Wedged, excused
		}
	}
	for _, a := range report.AnalyzeScaling(curve, opt.window).Algorithms {
		if f := cur.Fingerprint(a.Algorithm); f != nil {
			f.ScalingClass = a.Class
		}
	}
	cur.Sort()
	curDoc := render(cur, report.WriteBaselineCSV, report.RenderBaseline, report.WriteBaseline)
	if err := writeArtifacts(opt.artifacts, "regression-baseline", curDoc); err != nil {
		return document{}, err
	}

	switch opt.baseline {
	case "record":
		// Gate first: a study with skipped cells would record zero-valued
		// fingerprints, and truncating the existing baseline before
		// noticing would clobber a good committed file with a corrupt one.
		if err := gateRows(rows); err != nil {
			return document{}, fmt.Errorf("refusing to record a baseline from an incomplete study: %w", err)
		}
		if err := writeFile(opt.args[0], curDoc.json); err != nil {
			return document{}, fmt.Errorf("recording baseline: %w", err)
		}
		line := fmt.Sprintf("recorded %d fingerprints to %s (schema %d)\n",
			len(cur.Fingerprints), opt.args[0], report.BaselineSchema)
		said := func(w io.Writer) error {
			_, err := io.WriteString(w, line)
			return err
		}
		return document{csv: said, json: said, text: func() string { return line + curDoc.text() }}, nil
	case "check":
		base, err := loadBaseline(opt.args[0])
		if err != nil {
			return document{}, err
		}
		doc := comparisonDoc(base, cur, "baseline check failed")
		return doc, writeArtifacts(opt.artifacts, "regression-gate", doc)
	}
	return curDoc, nil
}

// comparisonDoc diffs two baselines under the gate's tolerance bands; the
// verdict fails when any metric is out of band.
func comparisonDoc(base, cur *report.Baseline, what string) document {
	cmp := report.CompareBaseline(base, cur, report.DefaultTolerances())
	doc := render(cmp, report.WriteComparisonCSV, report.RenderComparison, report.WriteComparisonJSON)
	if !cmp.Pass {
		doc.verdict = fmt.Errorf("%s: %d of %d metrics out of band (first: %s)",
			what, cmp.Failures, len(cmp.Diffs), cmp.FirstFailure())
	}
	return doc
}

// runBaselineDiff compares two already-recorded baseline files — base
// first, current second — under the gate's tolerance bands, without
// re-measuring anything. This is the PR-to-PR review form: record a
// baseline on each branch, then diff the two artifacts to see exactly
// which fingerprint metrics a change moved and by how much. Exits non-zero
// when any metric is out of band, like -baseline check.
func runBaselineDiff(out io.Writer, format, basePath, curPath string) error {
	base, err := loadBaseline(basePath)
	if err != nil {
		return err
	}
	cur, err := loadBaseline(curPath)
	if err != nil {
		return err
	}
	doc := comparisonDoc(base, cur, "baseline diff")
	if err := emit(out, format, doc); err != nil {
		return err
	}
	return doc.verdict
}

// loadBaseline reads one recorded baseline file.
func loadBaseline(path string) (*report.Baseline, error) {
	fil, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("loading baseline: %w", err)
	}
	defer fil.Close()
	b, err := report.LoadBaseline(fil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// writeArtifacts writes a document's JSON and CSV forms as stem.json and
// stem.csv into the -artifacts directory (created if missing); a no-op
// without one.
func writeArtifacts(dir, stem string, doc document) error {
	if dir == "" {
		return nil
	}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = writeFile(filepath.Join(dir, stem+".json"), doc.json)
	}
	if err == nil {
		err = writeFile(filepath.Join(dir, stem+".csv"), doc.csv)
	}
	if err != nil {
		return fmt.Errorf("artifacts: %w", err)
	}
	return nil
}

// writeFile creates path and fills it through write.
func writeFile(path string, write func(io.Writer) error) error {
	fil, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fil); err != nil {
		fil.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return fil.Close()
}
