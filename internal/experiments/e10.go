package experiments

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/verify"
)

// E10 leaves the paper's sequential regime to reproduce what the related
// work was built for: under concurrent operations, combining trees (YTL'87,
// GVW'89) merge requests and diffracting trees (SZ'94) pair tokens, so the
// root hot spot cools as the window opens — while in the sequential regime
// (window 0, which is also the adversary's regime) neither helps, which is
// why the paper's lower bound applies to them with full force.
//
// All n processors start an operation at t=0; the table reports root-host
// load, merge/diffraction counts, and total messages per window setting,
// plus a correctness check (all assigned values distinct).
func E10(cfg Config) (string, error) {
	n := pick(cfg, 64, 16)
	table := func(intro string, header []string, run func(n int, window int64) (E10Row, error)) (string, error) {
		return sweep[int64]{
			intro:  intro,
			header: header,
			over:   []int64{0, 4, 16, 64},
			point: func(window int64, row func(...any)) error {
				r, err := run(n, window)
				if err != nil {
					return err
				}
				row(window, r.RootLoad, r.Merged, r.Total, r.Distinct)
				return nil
			},
		}.render()
	}
	comb, err := table(fmt.Sprintf("concurrent regime: %d simultaneous operations, varying window\n\ncombining tree:\n", n),
		[]string{"combining window", "root-host load", "combined", "total msgs", "values distinct"}, E10Combining)
	if err != nil {
		return "", err
	}
	diff, err := table("\ndiffracting tree (width 8):\n",
		[]string{"prism window", "root toggles", "diffracted pairs", "total msgs", "values distinct"}, E10Difftree)
	return comb + diff, err
}

// E10Row is one concurrency measurement.
type E10Row struct {
	RootLoad int64
	Merged   int64
	Total    int64
	Distinct bool
}

// E10Combining runs n simultaneous operations on a combining tree with the
// given window.
func E10Combining(n int, window int64) (E10Row, error) {
	m := combining.NewMachine(n, combining.WithWindow(window))
	c := counter.OnSim(m)
	distinct, err := burst(c, n)
	return E10Row{
		RootLoad: c.Net().Load(combining.RootHost(m)),
		Merged:   combining.Combined(m),
		Total:    c.MessagesTotal(),
		Distinct: distinct,
	}, err
}

// E10Difftree runs n simultaneous operations on a diffracting tree with the
// given prism window.
func E10Difftree(n int, window int64) (E10Row, error) {
	m := difftree.NewMachine(n, difftree.WithWidth(8), difftree.WithWindow(window))
	c := counter.OnSim(m)
	distinct, err := burst(c, n)
	return E10Row{
		RootLoad: difftree.RootToggles(m),
		Merged:   difftree.Diffracted(m),
		Total:    c.MessagesTotal(),
		Distinct: distinct,
	}, err
}

// burst has processors 1..n all start an operation at t=0 and reports
// whether the values handed out are distinct (exactly 0..n-1).
func burst(c *counter.Sim, n int) (bool, error) {
	tv, err := timedRun(c, make([]int64, n))
	return err == nil && verify.QuiescentConsistent(tv) == nil, err
}
