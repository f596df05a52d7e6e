package core

import "distcount/internal/sim"

// The paper notes that its Hot Spot Lemma — and with it the whole lower
// bound — applies to "the family of all distributed data structures in
// which an operation depends on the operation that immediately precedes
// it. Examples for such data structures are a bit that can be accessed and
// flipped, and a priority queue."
//
// The communication tree is agnostic to what the root computes: requests
// climb to the root, the root applies them to its state and answers the
// initiator, and the retirement machinery keeps every processor's load at
// O(k) regardless. RootState captures that seam: the counter (this
// package), the flip-bit and the priority queue (internal/ext/...) are all
// instances.

// RootState is the sequential object the tree serves. Apply is invoked in
// the root's delivery context, once per operation, in operation order.
// Requests and replies must be immutable values (they travel in message
// payloads). A root handoff carries the state; one that has a Bits() int
// method is charged that many bits for it, any other a machine word.
type RootState interface {
	// Apply executes one operation against the state and returns the reply
	// sent back to the initiator.
	Apply(req any) any
	// CloneState returns an independent deep copy (for Network.Clone).
	CloneState() RootState
}

// counterState is the paper's counter: Apply ignores the request, returns
// the current value and increments it.
type counterState struct {
	val int
}

var _ RootState = (*counterState)(nil)

func (s *counterState) Apply(any) any {
	v := s.val
	s.val++
	return v
}

func (s *counterState) CloneState() RootState {
	cp := *s
	return &cp
}

// Bits sizes the state a root handoff carries: the counter value.
func (s *counterState) Bits() int { return sim.BitsFor(s.val) }
