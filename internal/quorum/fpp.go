package quorum

// FPP is Maekawa's finite-projective-plane system (the √N algorithm of the
// paper's citation [Mae]): the points of a projective plane of prime order
// q form the universe, its lines form the quorums. Every line holds q+1
// points, every two lines meet in EXACTLY one point, and every point lies
// on exactly q+1 lines — the unique quorum system that is simultaneously
// minimal in quorum size (~√n) and perfectly balanced in load.
//
// The plane PG(2, q) is built over Z_q (q prime): points and lines are both
// the normalized nonzero triples (x, y, z) modulo scalar multiples —
// q²+q+1 of each — and point P lies on line L iff P·L ≡ 0 (mod q). When
// the requested universe is larger than q²+q+1 for the chosen order,
// plane points map onto processors modulo n, which preserves intersection
// (equal points map to equal processors).
type FPP struct {
	n     int
	q     int     // prime order of the plane
	lines [][]int // lines[i] lists the processor ids on line i
}

// fppPrimes are the supported plane orders; the largest gives planes of
// 13³+13+1 = 183 points per... (13² + 13 + 1 = 183) — ample for the
// experiment sizes.
var fppPrimes = []int{2, 3, 5, 7, 11, 13}

// NewFPP creates a projective-plane system over n processors, choosing the
// largest supported prime order q with q²+q+1 <= n (or the smallest plane
// when n is tiny).
func NewFPP(n int) FPP {
	checkN(n, "fpp")
	q := fppPrimes[0]
	for _, p := range fppPrimes {
		if p*p+p+1 <= n {
			q = p
		}
	}
	f := FPP{n: n, q: q}
	f.build()
	return f
}

// Order returns the plane's prime order q (quorums have q+1 elements).
func (f FPP) Order() int { return f.q }

// build enumerates the plane's points and lines.
func (f *FPP) build() {
	q := f.q
	// Canonical points: (1, b, c), (0, 1, c), (0, 0, 1).
	points := make([][3]int, 0, q*q+q+1)
	for b := 0; b < q; b++ {
		for c := 0; c < q; c++ {
			points = append(points, [3]int{1, b, c})
		}
	}
	for c := 0; c < q; c++ {
		points = append(points, [3]int{0, 1, c})
	}
	points = append(points, [3]int{0, 0, 1})

	index := make(map[[3]int]int, len(points))
	for i, p := range points {
		index[p] = i
	}

	// Lines are the same triples by duality; line L contains point P iff
	// L·P == 0 (mod q).
	f.lines = make([][]int, 0, len(points))
	for _, l := range points {
		line := make([]int, 0, q+1)
		for _, p := range points {
			dot := (l[0]*p[0] + l[1]*p[1] + l[2]*p[2]) % q
			if dot == 0 {
				// Map plane point index onto a processor.
				line = append(line, index[p]%f.n+1)
			}
		}
		f.lines = append(f.lines, normalize(line))
	}
}

// Name implements System.
func (FPP) Name() string { return "fpp" }

// N implements System.
func (f FPP) N() int { return f.n }

// Lines returns the number of distinct lines (= q²+q+1).
func (f FPP) Lines() int { return len(f.lines) }

// Quorum implements System.
func (f FPP) Quorum(i int) []int {
	return append([]int(nil), f.lines[i%len(f.lines)]...)
}

var _ System = FPP{}
