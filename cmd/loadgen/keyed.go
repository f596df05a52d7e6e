package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"distcount/internal/countersvc"
)

// parseMigrateSpec parses a -migrate value: a target algorithm name,
// optionally followed by @-clauses tuning the hotspot detector —
// "combining" or "combining@hot=0.2/every=256/max=1". An empty spec is no
// migration (nil, nil).
func parseMigrateSpec(spec string) (*countersvc.Migration, error) {
	if spec == "" {
		return nil, nil
	}
	algoPart, tail, tuned := strings.Cut(spec, "@")
	if algoPart == "" {
		return nil, fmt.Errorf("-migrate %q: missing target algorithm", spec)
	}
	m := &countersvc.Migration{To: algoPart}
	if !tuned {
		return m, nil
	}
	for _, clause := range strings.Split(tail, "/") {
		key, val, ok := strings.Cut(clause, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("-migrate %q: clause %q is not key=value", spec, clause)
		}
		switch key {
		case "hot":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) || f <= 0 || f > 1 {
				return nil, fmt.Errorf("-migrate %q: hot=%q is not a share in (0, 1]", spec, val)
			}
			m.HotShare = f
		case "every":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("-migrate %q: every=%q is not a positive integer", spec, val)
			}
			m.CheckEvery = v
		case "max":
			v, err := strconv.Atoi(val)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("-migrate %q: max=%q is not a positive integer", spec, val)
			}
			m.MaxMoves = v
		default:
			return nil, fmt.Errorf("-migrate %q: unknown clause %q (have hot, every, max)", spec, key)
		}
	}
	return m, nil
}

// migrateTarget is the target-algorithm part of a -migrate spec — the
// label report rows carry.
func migrateTarget(spec string) string {
	target, _, _ := strings.Cut(spec, "@")
	return target
}
