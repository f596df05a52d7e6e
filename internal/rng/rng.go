// Package rng provides a small, deterministic, cloneable pseudo-random
// number generator.
//
// The simulator (internal/sim) must be able to snapshot and restore its
// entire state, including the randomness stream, so that the lower-bound
// adversary can explore hypothetical executions on cloned networks
// (see internal/adversary). The standard library generators do not expose
// their state for copying, so we use SplitMix64 (Steele, Lea, Flood;
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014), which
// passes BigCrush, has a single 64-bit word of state, and is trivially
// cloneable.
package rng

// Source is a deterministic pseudo-random number generator with cloneable
// state. It is not safe for concurrent use; the simulator is single-threaded
// by design (a discrete-event simulation), so no locking is needed.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value. Two Sources created with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Clone returns an independent copy of the Source. The clone continues the
// stream exactly where the original is, and the two evolve independently
// afterwards.
func (s *Source) Clone() *Source {
	cp := *s
	return &cp
}

// Uint64 returns the next value in the SplitMix64 stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire-style rejection-free multiply-shift would bias slightly for
	// huge n; ranges in this project are tiny relative to 2^64, so modulo
	// bias is negligible, but we keep a rejection loop for exactness.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := s.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a uniform random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of the integers [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
