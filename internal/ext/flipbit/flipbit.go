// Package flipbit implements the first of the paper's two extension
// examples: "the argument in the Hot Spot Lemma can be made for the family
// of all distributed data structures in which an operation depends on the
// operation that immediately precedes it. Examples for such data
// structures are a bit that can be accessed and flipped and a priority
// queue."
//
// The bit is served by the paper's communication tree (internal/core), so
// it inherits the whole Section 4 result: test-and-flip operations cost the
// bottleneck processor only O(k) messages over the canonical workload,
// matching the Ω(k) lower bound that the Hot Spot Lemma argument extends to
// this data type.
package flipbit

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/sim"
)

// Request/reply payload values.
type (
	flipReq  struct{}
	readReq  struct{}
	bitReply struct{ Val bool }
)

// bitState is the root state: a single bit.
type bitState struct {
	val bool
}

var _ core.RootState = (*bitState)(nil)

// Apply implements core.RootState: flip returns the value before flipping
// (test-and-flip); read returns the value unchanged.
func (s *bitState) Apply(req any) any {
	switch req.(type) {
	case flipReq:
		v := s.val
		s.val = !s.val
		return bitReply{Val: v}
	case readReq:
		return bitReply{Val: s.val}
	default:
		panic(fmt.Sprintf("flipbit: unexpected request %T", req))
	}
}

// CloneState implements core.RootState.
func (s *bitState) CloneState() core.RootState {
	cp := *s
	return &cp
}

// Bits sizes the state a root handoff carries: one bit.
func (s *bitState) Bits() int { return 1 }

// Bit is a distributed test-and-flip bit with O(k) bottleneck load.
type Bit struct {
	tree *core.Tree
}

// New creates the bit over the communication tree of arity k
// (n = k·k^k processors), initially false.
func New(k int, opts ...core.Option) *Bit {
	return &Bit{tree: core.NewTree(k, &bitState{}, opts...)}
}

// NewForSize creates the bit for at least n processors (n rounded up to
// the next admissible tree size).
func NewForSize(n int, opts ...core.Option) *Bit {
	return New(core.KForSize(n), opts...)
}

// Tree exposes the underlying communication tree (loads, lemma checks).
func (b *Bit) Tree() *core.Tree { return b.tree }

// N returns the number of processors.
func (b *Bit) N() int { return b.tree.N() }

// Flip performs a test-and-flip initiated by processor p: it returns the
// bit's value before the flip.
func (b *Bit) Flip(p sim.ProcID) (bool, error) {
	reply, err := b.tree.Do(p, flipReq{})
	if err != nil {
		return false, err
	}
	return reply.(bitReply).Val, nil
}

// Read returns the bit's current value as observed by processor p. Reads
// route through the tree like any operation: they depend on the preceding
// operation, which is exactly why the lower bound covers them.
func (b *Bit) Read(p sim.ProcID) (bool, error) {
	reply, err := b.tree.Do(p, readReq{})
	if err != nil {
		return false, err
	}
	return reply.(bitReply).Val, nil
}

// Clone returns an independent deep copy.
func (b *Bit) Clone() (*Bit, error) {
	tr, err := b.tree.CloneTree()
	if err != nil {
		return nil, err
	}
	return &Bit{tree: tr}, nil
}
