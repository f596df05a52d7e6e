// Package distpq implements the second of the paper's two extension
// examples — a distributed priority queue — on the communication tree of
// internal/core. Insert and delete-min both depend on the immediately
// preceding operation (a delete-min must observe every earlier insert), so
// the Hot Spot Lemma and with it the Ω(k) lower bound apply verbatim; the
// tree's retirement machinery again delivers the matching O(k) per-
// processor message load.
package distpq

import (
	"fmt"

	"distcount/internal/core"
	"distcount/internal/sim"
)

// Request/reply payload values.
type (
	insertReq struct{ Pri int }
	delMinReq struct{}
	sizeReq   struct{}
	ackReply  struct{}
	minReply  struct {
		Pri int
		OK  bool
	}
	sizeReply struct{ Size int }
)

// pqState is the root state: a binary min-heap of priorities.
type pqState struct {
	heap []int
}

var _ core.RootState = (*pqState)(nil)

// Apply implements core.RootState.
func (s *pqState) Apply(req any) any {
	switch r := req.(type) {
	case insertReq:
		s.push(r.Pri)
		return ackReply{}
	case delMinReq:
		if len(s.heap) == 0 {
			return minReply{}
		}
		return minReply{Pri: s.pop(), OK: true}
	case sizeReq:
		return sizeReply{Size: len(s.heap)}
	default:
		panic(fmt.Sprintf("distpq: unexpected request %T", req))
	}
}

// CloneState implements core.RootState.
func (s *pqState) CloneState() core.RootState {
	return &pqState{heap: append([]int(nil), s.heap...)}
}

// Bits sizes the state a root handoff carries: the queue's length and each
// priority's magnitude. Unlike the counter's value it grows with the
// queue, so a root handoff's message does not stay within O(log n) bits.
func (s *pqState) Bits() int {
	bits := sim.BitsFor(len(s.heap))
	for _, p := range s.heap {
		bits += sim.BitsFor(max(p, -p))
	}
	return bits
}

func (s *pqState) push(v int) {
	s.heap = append(s.heap, v)
	i := len(s.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent] <= s.heap[i] {
			break
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

func (s *pqState) pop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s.heap) && s.heap[l] < s.heap[smallest] {
			smallest = l
		}
		if r < len(s.heap) && s.heap[r] < s.heap[smallest] {
			smallest = r
		}
		if smallest == i {
			return top
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}

// Queue is a distributed priority queue with O(k) bottleneck load.
type Queue struct {
	tree *core.Tree
}

// New creates the queue over the communication tree of arity k.
func New(k int, opts ...core.Option) *Queue {
	return &Queue{tree: core.NewTree(k, &pqState{}, opts...)}
}

// NewForSize creates the queue for at least n processors.
func NewForSize(n int, opts ...core.Option) *Queue {
	return New(core.KForSize(n), opts...)
}

// Tree exposes the underlying communication tree.
func (q *Queue) Tree() *core.Tree { return q.tree }

// N returns the number of processors.
func (q *Queue) N() int { return q.tree.N() }

// Insert adds a priority to the queue on behalf of processor p.
func (q *Queue) Insert(p sim.ProcID, priority int) error {
	_, err := q.tree.Do(p, insertReq{Pri: priority})
	return err
}

// DelMin removes and returns the smallest priority; ok is false when the
// queue was empty.
func (q *Queue) DelMin(p sim.ProcID) (priority int, ok bool, err error) {
	reply, err := q.tree.Do(p, delMinReq{})
	if err != nil {
		return 0, false, err
	}
	m := reply.(minReply)
	return m.Pri, m.OK, nil
}

// Size returns the number of queued priorities as observed by p.
func (q *Queue) Size(p sim.ProcID) (int, error) {
	reply, err := q.tree.Do(p, sizeReq{})
	if err != nil {
		return 0, err
	}
	return reply.(sizeReply).Size, nil
}

// Clone returns an independent deep copy.
func (q *Queue) Clone() (*Queue, error) {
	tr, err := q.tree.CloneTree()
	if err != nil {
		return nil, err
	}
	return &Queue{tree: tr}, nil
}
