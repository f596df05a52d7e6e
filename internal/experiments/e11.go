package experiments

import (
	"fmt"

	"distcount/internal/loadstat"
	"distcount/internal/quorum"
)

// E11 reproduces the quorum-system landscape of the related work (Maekawa,
// including his finite-projective-plane system;
// Peleg & Wool; Agrawal & El Abbadi; Holzman, Marcus & Peleg): for each
// construction, the quorum size (message cost per access) versus the
// bottleneck element load over n rotated accesses. The punchline mirrors
// the paper's: small quorums do not imply a small bottleneck — tree quorums
// are the smallest yet root-concentrated, while grids and walls pay Θ(√n)
// messages for near-flat load, and none of the static systems can reach the
// paper's O(k): that needs the dynamic processor rotation of Section 4.
func E11(cfg Config) (string, error) {
	n := pick(cfg, 100, 36)
	return sweep[quorum.System]{
		intro:  fmt.Sprintf("quorum systems over n=%d elements, %d rotated accesses\n\n", n, n),
		header: []string{"system", "max |Q|", "bottleneck element load", "mean load", "gini", "intersection"},
		over: []quorum.System{
			quorum.NewSingleton(n),
			quorum.NewMajority(n),
			quorum.NewGrid(n),
			quorum.NewFPP(n),
			quorum.NewTree(n),
			quorum.NewWall(n),
		},
		point: func(s quorum.System, row func(...any)) error {
			r, err := E11Point(s, n)
			if err != nil {
				return err
			}
			row(s.Name(), r.MaxQuorum, r.MaxLoad, r.Mean, r.Gini, r.Intersect)
			return nil
		},
		outro: func([][]any) (string, error) {
			return "\nsmall quorums != small bottleneck: tree quorums are smallest but root-heavy;\n" +
				"the paper's dynamic scheme (E5) beats all static systems on bottleneck load.\n", nil
		},
	}.render()
}

// E11Row is one quorum-system measurement.
type E11Row struct {
	MaxQuorum  int
	MaxLoad    int64
	Mean, Gini float64
	Intersect  string
}

// E11Point measures one system over ops rotated accesses.
func E11Point(s quorum.System, ops int) (E11Row, error) {
	if err := quorum.Verify(s, min(ops, 48)); err != nil {
		return E11Row{Intersect: "FAIL"}, err
	}
	loads := quorum.LoadProfile(s, ops)
	sum := loadstat.SummarizeLoads(loads)
	return E11Row{
		MaxQuorum: quorum.MaxQuorumSize(s, ops),
		MaxLoad:   sum.MaxLoad,
		Mean:      sum.Mean,
		Gini:      sum.Gini,
		Intersect: "ok",
	}, nil
}
