package sim

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

// OpStats aggregates what happened during one operation: the OpDone record
// its completion reports (Start and End are simulated times of the
// initiation event and of the last event attributed to the operation) and
// the simulator's own accounting of its queued events.
type OpStats struct {
	OpDone
	// nodes is the number of DAG nodes numbered so far, the source included,
	// or 0 when the operation started with no OnDeliver hook.
	nodes int
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

// opTable stores the live operations' records in a power-of-two ring
// indexed by the sequential OpID, replacing the map whose assign/scan costs
// dominated the event-processing profile. Because ids are issued
// consecutively and the engine forgets operations shortly after completion,
// the live ids form a narrow moving window (floor, top]: slot id&mask is
// unambiguous as long as the window is no wider than the ring, and the ring
// doubles on the rare runs that keep more operations alive.
//
// Forgotten records are recycled through a free list, so a steady-state
// workload run performs no per-operation allocation at all (see
// Network.ForgetOp for the resulting retention contract).
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

// alloc returns a record for the given operation, recycled when one is free.
func (t *opTable) alloc(id OpID, p ProcID, at int64) *OpStats {
	var st *OpStats
	if last := len(t.free) - 1; last >= 0 {
		st = t.free[last]
		t.free[last] = nil
		t.free = t.free[:last]
	} else {
		st = new(OpStats)
	}
	*st = OpStats{OpDone: OpDone{ID: id, Initiator: p, Start: at, End: at}, pending: 1}
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
