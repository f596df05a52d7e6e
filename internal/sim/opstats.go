package sim

import "math/bits"

// OpDone is one finished operation as a backend reports it: the interval
// from the operation's initiation to its last attributed event, on the
// backend's clock (simulated ticks, or wall-clock nanoseconds on rt), and
// the network messages attributed to it.
type OpDone struct {
	ID         OpID
	Initiator  ProcID
	Start, End int64
	Messages   int64
}

// Delivery is one node of an operation's communication DAG (Figure 1) as a
// backend reports it to an OnDeliver hook: Proc starting Op (Node 0, Parent
// -1) or receiving one of its network messages, sent from node Parent. A
// timer makes no node; its callback acts at the node that set it.
type Delivery struct {
	Op           OpID
	Proc         ProcID
	Node, Parent int
}

// OpStats aggregates what happened during one operation.
type OpStats struct {
	ID        OpID
	Initiator ProcID
	// StartedAt and DoneAt are the simulated times of the initiation event
	// and of the last event attributed to the operation.
	StartedAt, DoneAt int64
	// Messages is the number of network messages sent during the operation.
	Messages int64
	// nodes is the number of DAG nodes numbered so far, the source included,
	// or 0 when the operation started with no OnDeliver hook.
	nodes int

	// participants is the paper's I_p as a bitset over processor ids: one
	// bit flip per send instead of the map insert that used to dominate the
	// Send profile.
	participants procSet
	// inlineWords backs the participant bitset for networks of up to 127
	// processors, so the common small-n operation record is one allocation.
	inlineWords [2]uint64
	// pending counts the queued events (messages, timers, the initiation
	// itself) still belonging to the operation; the operation is complete
	// exactly when pending returns to zero.
	pending int
	// killed counts events of the operation destroyed by injected faults
	// (lost messages, deliveries drained at a crashed processor, cancelled
	// timers). A killed event is never delivered, so pending can no longer
	// reach zero: the operation is wedged, visibly, rather than completing
	// with a silent gap.
	killed int
}

// Killed returns the number of the operation's events destroyed by injected
// faults.
func (s *OpStats) Killed() int { return s.killed }

// Wedged reports whether the operation can no longer complete because an
// injected fault destroyed at least one of its events.
func (s *OpStats) Wedged() bool { return s.pending > 0 && s.killed > 0 }

// Done reports whether the operation has completed: no queued event belongs
// to it anymore.
func (s *OpStats) Done() bool { return s.pending == 0 }

// Participants returns the sorted set I_p of processors that sent or
// received a message during the operation, always including the initiator.
func (s *OpStats) Participants() []int {
	return s.participants.members(make([]int, 0, s.participants.count()))
}

// ParticipantSet returns I_p as a set, built fresh on each call (the hot
// path keeps I_p as a bitset; the map form exists for the verification
// helpers that key other data by processor id).
func (s *OpStats) ParticipantSet() map[int]struct{} {
	out := make(map[int]struct{}, s.participants.count())
	for _, p := range s.Participants() {
		out[p] = struct{}{}
	}
	return out
}

// SharesParticipant reports whether the two operations' participant sets
// intersect — the Hot Spot Lemma's I_p ∩ I_q ≠ ∅ test — as a word-wise AND
// over the bitsets, with no allocation.
func (s *OpStats) SharesParticipant(t *OpStats) bool {
	return s.participants.intersects(t.participants)
}

// reset prepares a recycled record for a new operation: every field is
// cleared except the participant bitset's backing array, which is zeroed in
// place.
func (s *OpStats) reset(id OpID, p ProcID, at int64) {
	words := s.participants.words
	for i := range words {
		words[i] = 0
	}
	*s = OpStats{ID: id, Initiator: p, StartedAt: at, DoneAt: at, pending: 1}
	s.participants.words = words
}

// procSet is a fixed-capacity bitset over processor ids. Bit p of the
// concatenated words marks processor p (bit 0 stays unused, matching the
// 1-based id space).
type procSet struct {
	words []uint64
}

// procSetWords returns the number of 64-bit words a bitset over ids 1..n
// needs.
func procSetWords(n int) int { return n>>6 + 1 }

func (s procSet) add(p int)      { s.words[p>>6] |= 1 << (uint(p) & 63) }
func (s procSet) has(p int) bool { return s.words[p>>6]&(1<<(uint(p)&63)) != 0 }

func (s procSet) count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// members appends the set's elements to dst in ascending order.
func (s procSet) members(dst []int) []int {
	for i, w := range s.words {
		base := i << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

func (s procSet) intersects(t procSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// opTable stores the live operations' records in a power-of-two ring
// indexed by the sequential OpID, replacing the map whose assign/scan costs
// dominated the event-processing profile. Because ids are issued
// consecutively and the engine forgets operations shortly after completion,
// the live ids form a narrow moving window (floor, top]: slot id&mask is
// unambiguous as long as the window is no wider than the ring, and the ring
// doubles on the rare runs that keep more operations alive.
//
// Forgotten records are recycled through a free list, so a steady-state
// workload run performs no per-operation allocation at all (the record and
// its participant bitset are reused; see Network.ForgetOp for the resulting
// retention contract).
type opTable struct {
	floor OpID       // every id <= floor is forgotten (or predates tracking)
	top   OpID       // highest id ever stored
	ring  []*OpStats // len is a power of two; nil slot = forgotten
	free  []*OpStats // recycled records, reused by the next put
}

const opTableMinSize = 64

// get returns the record of id, or nil when the id is unknown, forgotten,
// or zero.
func (t *opTable) get(id OpID) *OpStats {
	if id <= t.floor || id > t.top {
		return nil
	}
	return t.ring[int(id)&(len(t.ring)-1)]
}

// alloc returns a recycled record reset for the given operation, or a fresh
// one with a bitset sized for n processors.
func (t *opTable) alloc(id OpID, p ProcID, at int64, n int) *OpStats {
	if last := len(t.free) - 1; last >= 0 {
		st := t.free[last]
		t.free[last] = nil
		t.free = t.free[:last]
		st.reset(id, p, at)
		return st
	}
	st := &OpStats{ID: id, Initiator: p, StartedAt: at, DoneAt: at, pending: 1}
	if w := procSetWords(n); w <= len(st.inlineWords) {
		st.participants.words = st.inlineWords[:w]
	} else {
		st.participants.words = make([]uint64, w)
	}
	return st
}

// put stores the record of id, which must be the successor of the highest
// id stored so far (ids are issued by a counter).
func (t *opTable) put(id OpID, st *OpStats) {
	if t.ring == nil {
		t.ring = make([]*OpStats, opTableMinSize)
	}
	for int(id-t.floor) > len(t.ring) {
		t.grow()
	}
	t.ring[int(id)&(len(t.ring)-1)] = st
	t.top = id
}

// grow doubles the ring, re-slotting the live window.
func (t *opTable) grow() {
	next := make([]*OpStats, len(t.ring)*2)
	mask, nmask := len(t.ring)-1, len(next)-1
	for id := t.floor + 1; id <= t.top; id++ {
		next[int(id)&nmask] = t.ring[int(id)&mask]
	}
	t.ring = next
}

// forget drops id's record, recycling it into the free list, and advances
// the floor over the forgotten prefix.
func (t *opTable) forget(id OpID) {
	if id <= t.floor || id > t.top {
		return
	}
	mask := len(t.ring) - 1
	slot := int(id) & mask
	st := t.ring[slot]
	if st == nil {
		return
	}
	t.ring[slot] = nil
	t.free = append(t.free, st)
	for t.floor < t.top && t.ring[int(t.floor+1)&mask] == nil {
		t.floor++
	}
}
