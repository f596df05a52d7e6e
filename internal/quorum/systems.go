package quorum

import (
	"distcount/internal/rng"
)

// Singleton is the degenerate one-element system: every quorum is {1}.
// Minimal quorums, maximal bottleneck — the quorum-world analogue of the
// centralized counter.
type Singleton struct{ n int }

// NewSingleton creates the singleton system over n processors.
func NewSingleton(n int) Singleton {
	checkN(n, "singleton")
	return Singleton{n: n}
}

// Name implements System.
func (Singleton) Name() string { return "singleton" }

// N implements System.
func (s Singleton) N() int { return s.n }

// Quorum implements System.
func (Singleton) Quorum(int) []int { return []int{1} }

// Majority is the classic majority system (Garcia-Molina & Barbara; Gifford):
// any ⌊n/2⌋+1 processors form a quorum. The rotation takes consecutive
// blocks around the ring so load spreads perfectly.
type Majority struct{ n int }

// NewMajority creates the majority system over n processors.
func NewMajority(n int) Majority {
	checkN(n, "majority")
	return Majority{n: n}
}

// Name implements System.
func (Majority) Name() string { return "majority" }

// N implements System.
func (m Majority) N() int { return m.n }

// Quorum implements System. The block start+1, ..., start+size wraps past n
// onto 1, ..., start+size−n, so its sorted form is two ascending runs — the
// wrapped low run, then start+1 up to n — written in place, with no sort.
func (m Majority) Quorum(i int) []int {
	size := m.n/2 + 1
	start := i % m.n
	q := make([]int, size)
	wrapped := max(start+size-m.n, 0)
	for j := range wrapped {
		q[j] = j + 1
	}
	for j := wrapped; j < size; j++ {
		q[j] = start + 1 + j - wrapped
	}
	return q
}

// Grid is Maekawa-style: processors arranged in a rows×cols grid; a quorum
// is a full row plus a full column, so any two quorums meet where one's row
// crosses the other's column. Quorum size Θ(√n) with balanced load. When
// rows·cols > n, grid cells wrap onto processors modulo n, which preserves
// intersection (equal cells map to equal processors).
type Grid struct {
	n, rows, cols int
}

// NewGrid creates a near-square grid system over n processors.
func NewGrid(n int) Grid {
	checkN(n, "grid")
	rows := 1
	for (rows+1)*(rows+1) <= n {
		rows++
	}
	cols := (n + rows - 1) / rows
	return Grid{n: n, rows: rows, cols: cols}
}

// Name implements System.
func (Grid) Name() string { return "grid" }

// N implements System.
func (g Grid) N() int { return g.n }

// Rows returns the grid's row count.
func (g Grid) Rows() int { return g.rows }

// Cols returns the grid's column count.
func (g Grid) Cols() int { return g.cols }

// cell maps grid coordinates to a processor.
func (g Grid) cell(r, c int) int {
	return (r*g.cols+c)%g.n + 1
}

// Quorum implements System.
func (g Grid) Quorum(i int) []int {
	r := i % g.rows
	c := (i / g.rows) % g.cols
	q := make([]int, 0, g.rows+g.cols-1)
	for cc := 0; cc < g.cols; cc++ {
		q = append(q, g.cell(r, cc))
	}
	for rr := 0; rr < g.rows; rr++ {
		q = append(q, g.cell(rr, c))
	}
	return normalize(q)
}

// Tree is the Agrawal–El Abbadi tree quorum protocol over a complete binary
// tree: a quorum is built by the recursion Q(v) = {v} ∪ Q(child) — walk
// through v into one subtree — or Q(left) ∪ Q(right) — bypass v at the cost
// of covering both subtrees. Best-case quorums are root-to-leaf paths of
// size O(log n), but the root participates in most of them: small quorums,
// concentrated load. Tree positions beyond n wrap onto processors modulo n.
type Tree struct {
	n    int
	size int // complete-tree node count: 2^h - 1 >= n
	// bypass controls how often the rotation pays to skip a node: the j-th
	// random draw bypasses with probability 1/4.
	bypass float64
}

// NewTree creates the tree-quorum system over n processors.
func NewTree(n int) Tree {
	checkN(n, "tree")
	size := 1
	for size < n {
		size = 2*size + 1
	}
	return Tree{n: n, size: size, bypass: 0.25}
}

// Name implements System.
func (Tree) Name() string { return "tree" }

// N implements System.
func (t Tree) N() int { return t.n }

// Quorum implements System.
func (t Tree) Quorum(i int) []int {
	r := rng.New(uint64(i)*0x9e3779b97f4a7c15 + 1)
	var q []int
	var build func(pos int)
	build = func(pos int) {
		left, right := 2*pos+1, 2*pos+2
		if left >= t.size { // leaf
			q = append(q, pos%t.n+1)
			return
		}
		if r.Float64() < t.bypass {
			// Bypass pos: must cover both subtrees.
			build(left)
			build(right)
			return
		}
		q = append(q, pos%t.n+1)
		if r.Intn(2) == 0 {
			build(left)
		} else {
			build(right)
		}
	}
	build(0)
	return normalize(q)
}

// Wall is the crumbling-walls system of Peleg & Wool: processors tile rows
// of increasing width; a quorum is one full row plus one representative
// from every row below it. Two quorums meet either in their shared full row
// or where the higher quorum's representative hits the lower one's full
// row. Near-optimal load with O(√n) quorums.
type Wall struct {
	n    int
	rows [][]int // rows[r] lists the processors of row r, top to bottom
}

// NewWall creates a crumbling wall with row widths 1, 2, 3, ... (the last
// row absorbs the remainder).
func NewWall(n int) Wall {
	checkN(n, "wall")
	w := Wall{n: n}
	next, width := 1, 1
	for next <= n {
		row := make([]int, 0, width)
		for len(row) < width && next <= n {
			row = append(row, next)
			next++
		}
		w.rows = append(w.rows, row)
		width++
	}
	// Fold a trailing short row into its predecessor so every row below
	// another is non-empty and widths stay monotone.
	if len(w.rows) > 1 && len(w.rows[len(w.rows)-1]) < len(w.rows[len(w.rows)-2]) {
		last := w.rows[len(w.rows)-1]
		w.rows = w.rows[:len(w.rows)-1]
		w.rows[len(w.rows)-1] = append(w.rows[len(w.rows)-1], last...)
	}
	return w
}

// Name implements System.
func (Wall) Name() string { return "wall" }

// N implements System.
func (w Wall) N() int { return w.n }

// RowCount returns the number of rows of the wall.
func (w Wall) RowCount() int { return len(w.rows) }

// Quorum implements System.
func (w Wall) Quorum(i int) []int {
	r := rng.New(uint64(i)*0xbf58476d1ce4e5b9 + 1)
	row := i % len(w.rows)
	q := append([]int(nil), w.rows[row]...)
	for below := row + 1; below < len(w.rows); below++ {
		q = append(q, w.rows[below][r.Intn(len(w.rows[below]))])
	}
	return normalize(q)
}

var (
	_ System = Singleton{}
	_ System = Majority{}
	_ System = Grid{}
	_ System = Tree{}
	_ System = Wall{}
)
