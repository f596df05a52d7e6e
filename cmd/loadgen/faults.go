package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"distcount/internal/sim"
)

// This file parses the -faults flag into a sim.FaultPlan. The spec is a
// comma-separated list of fault clauses; the same grammar labels rows in
// sweep and study reports, so a CSV's faults column is always a valid
// -faults value.
//
//	loss:P                        i.i.d. per-send loss probability in [0,1)
//	dup:P                         i.i.d. per-send duplication probability
//	dropnth:PROC@every=K          drop PROC's every K-th send (PROC 0 = all)
//	dupnth:PROC@every=K           duplicate PROC's every K-th send
//	crash:PROC@t=FROM             crash PROC at tick FROM, never recovering
//	crash:PROC@t=FROM-TO          crash PROC for ticks [FROM, TO)
//	churn:PROCS@every=PERIOD/down=DOWN
//	                              rotate the PROCS highest-numbered
//	                              processors: one down for DOWN of every
//	                              PERIOD ticks
//	freeze                        crashed processors buffer (not drop)
//	                              deliveries until recovery
//	seed:S                        seed of the plan's dedicated fault RNG
//
// Example: -faults loss:0.01,crash:1@t=500,freeze

// parseFaultSpec parses a -faults value. The empty spec returns nil (no
// fault plan); all validation the simulator would panic on is reported as a
// flag error here instead, before anything runs.
func parseFaultSpec(spec string) (*sim.FaultPlan, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	plan := &sim.FaultPlan{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, arg, _ := strings.Cut(clause, ":")
		switch kind {
		case "freeze":
			if arg != "" {
				return nil, fmt.Errorf("-faults: freeze takes no argument (got %q)", clause)
			}
			plan.Freeze = true
		case "seed":
			s, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("-faults: seed %q is not an unsigned integer", arg)
			}
			plan.Seed = s
		case "loss", "dup":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil || math.IsNaN(p) || p < 0 || p >= 1 {
				return nil, fmt.Errorf("-faults: %s probability %q outside [0,1)", kind, arg)
			}
			if kind == "loss" {
				plan.Loss = p
			} else {
				plan.Dup = p
			}
		case "dropnth", "dupnth":
			rule, err := parseNthClause(kind, arg)
			if err != nil {
				return nil, err
			}
			if kind == "dropnth" {
				plan.DropNth = append(plan.DropNth, rule)
			} else {
				plan.DupNth = append(plan.DupNth, rule)
			}
		case "crash":
			d, err := parseCrashClause(arg)
			if err != nil {
				return nil, err
			}
			plan.Crashes = append(plan.Crashes, d)
		case "churn":
			if plan.Churn != nil {
				return nil, fmt.Errorf("-faults: at most one churn clause")
			}
			c, err := parseChurnClause(arg)
			if err != nil {
				return nil, err
			}
			plan.Churn = &c
		default:
			return nil, fmt.Errorf("-faults: unknown clause %q (have loss, dup, dropnth, dupnth, crash, churn, freeze, seed)", clause)
		}
	}
	if plan.Empty() {
		// freeze or seed alone schedule nothing; treating that as "no plan"
		// would silently drop the flag, so reject it.
		return nil, fmt.Errorf("-faults %q schedules no faults (freeze/seed only modify other clauses)", spec)
	}
	return plan, nil
}

// parseNthClause parses "PROC@every=K" for dropnth/dupnth.
func parseNthClause(kind, arg string) (sim.NthRule, error) {
	procPart, params, ok := strings.Cut(arg, "@")
	if !ok {
		return sim.NthRule{}, fmt.Errorf("-faults: %s needs %s:PROC@every=K (got %q)", kind, kind, arg)
	}
	proc, err := strconv.Atoi(procPart)
	if err != nil || proc < 0 {
		return sim.NthRule{}, fmt.Errorf("-faults: %s processor %q is not a non-negative integer (0 = every sender)", kind, procPart)
	}
	val, ok := strings.CutPrefix(params, "every=")
	if !ok {
		return sim.NthRule{}, fmt.Errorf("-faults: %s needs every=K after @ (got %q)", kind, params)
	}
	every, err := strconv.ParseInt(val, 10, 64)
	if err != nil || every < 1 {
		return sim.NthRule{}, fmt.Errorf("-faults: %s every %q is not a positive integer", kind, val)
	}
	return sim.NthRule{Proc: sim.ProcID(proc), Every: every}, nil
}

// parseCrashClause parses "PROC@t=FROM" or "PROC@t=FROM-TO".
func parseCrashClause(arg string) (sim.Downtime, error) {
	procPart, params, ok := strings.Cut(arg, "@")
	if !ok {
		return sim.Downtime{}, fmt.Errorf("-faults: crash needs crash:PROC@t=FROM[-TO] (got %q)", arg)
	}
	proc, err := strconv.Atoi(procPart)
	if err != nil || proc < 1 {
		return sim.Downtime{}, fmt.Errorf("-faults: crash processor %q is not a positive integer", procPart)
	}
	span, ok := strings.CutPrefix(params, "t=")
	if !ok {
		return sim.Downtime{}, fmt.Errorf("-faults: crash needs t=FROM[-TO] after @ (got %q)", params)
	}
	fromPart, toPart, hasTo := strings.Cut(span, "-")
	from, err := strconv.ParseInt(fromPart, 10, 64)
	if err != nil || from < 0 {
		return sim.Downtime{}, fmt.Errorf("-faults: crash time %q is not a non-negative integer", fromPart)
	}
	d := sim.Downtime{Proc: sim.ProcID(proc), From: from}
	if hasTo {
		to, err := strconv.ParseInt(toPart, 10, 64)
		if err != nil || to <= from {
			return sim.Downtime{}, fmt.Errorf("-faults: crash window %q is empty or malformed (need FROM < TO)", span)
		}
		d.To = to
	}
	return d, nil
}

// parseChurnClause parses "PROCS@every=PERIOD/down=DOWN".
func parseChurnClause(arg string) (sim.ChurnSpec, error) {
	procPart, params, ok := strings.Cut(arg, "@")
	if !ok {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn needs churn:PROCS@every=PERIOD/down=DOWN (got %q)", arg)
	}
	procs, err := strconv.Atoi(procPart)
	if err != nil || procs < 1 {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn processor count %q is not a positive integer", procPart)
	}
	everyPart, downPart, ok := strings.Cut(params, "/")
	if !ok {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn needs every=PERIOD/down=DOWN after @ (got %q)", params)
	}
	ev, ok := strings.CutPrefix(everyPart, "every=")
	if !ok {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn needs every=PERIOD (got %q)", everyPart)
	}
	period, err := strconv.ParseInt(ev, 10, 64)
	if err != nil || period < 1 {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn period %q is not a positive integer", ev)
	}
	dn, ok := strings.CutPrefix(downPart, "down=")
	if !ok {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn needs down=DOWN (got %q)", downPart)
	}
	down, err := strconv.ParseInt(dn, 10, 64)
	if err != nil || down < 1 || down > period {
		return sim.ChurnSpec{}, fmt.Errorf("-faults: churn down %q needs 0 < DOWN <= PERIOD", dn)
	}
	return sim.ChurnSpec{Procs: procs, Period: period, Down: down}, nil
}
