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

// opStats is the simulator's record of one operation in flight: the OpDone
// its completion reports (Start and End are simulated times of the
// initiation event and of the last event attributed to the operation) and
// the accounting that decides the record's lifetime (see Network.release).
type opStats struct {
	OpDone
	// nodes is the number of DAG nodes numbered so far, the source included,
	// or 0 when the operation started with no OnDeliver hook.
	nodes int
	// pending counts the units still belonging to the operation: queued
	// events (messages, timers, the initiation itself) and adopted tokens.
	// The record is freed when it returns to zero.
	pending int
	// lost marks an operation that an injected fault destroyed an event of
	// (a lost message, a delivery drained at a crashed processor, a
	// cancelled timer). Its record is still freed with its last unit, but it
	// never completes: no OnOpDone fires, so it stalls visibly rather than
	// completing with a silent gap.
	lost bool
}

// opTable stores the live operations' records in a power-of-two ring
// indexed by the sequential OpID, replacing the map whose assign/scan costs
// dominated the event-processing profile. Because ids are issued
// consecutively and a record is freed with its operation's last pending
// unit, the live ids form a narrow moving window (floor, top]: slot id&mask
// is unambiguous as long as the window is no wider than the ring, and the
// ring doubles on the rare runs that keep more operations in flight.
//
// Freed records are recycled through a free list, so a steady-state
// workload run performs no per-operation allocation at all.
type opTable struct {
	floor OpID       // every id <= floor is freed (or predates tracking)
	top   OpID       // highest id ever stored
	ring  []*opStats // len is a power of two; nil slot = freed
	free  []*opStats // recycled records, reused by the next put
}

const opTableMinSize = 64

// get returns the record of id, or nil when the id is unknown, freed, or
// zero.
func (t *opTable) get(id OpID) *opStats {
	if id <= t.floor || id > t.top {
		return nil
	}
	return t.ring[int(id)&(len(t.ring)-1)]
}

// alloc returns a record for the given operation, recycled when one is free.
func (t *opTable) alloc(id OpID, p ProcID, at int64) *opStats {
	var st *opStats
	if last := len(t.free) - 1; last >= 0 {
		st = t.free[last]
		t.free[last] = nil
		t.free = t.free[:last]
	} else {
		st = new(opStats)
	}
	*st = opStats{OpDone: OpDone{ID: id, Initiator: p, Start: at, End: at}, pending: 1}
	return st
}

// put stores the record of id, which must be the successor of the highest
// id stored so far (ids are issued by a counter).
func (t *opTable) put(id OpID, st *opStats) {
	if t.ring == nil {
		t.ring = make([]*opStats, opTableMinSize)
	}
	for int(id-t.floor) > len(t.ring) {
		t.grow()
	}
	t.ring[int(id)&(len(t.ring)-1)] = st
	t.top = id
}

// grow doubles the ring, re-slotting the live window.
func (t *opTable) grow() {
	next := make([]*opStats, len(t.ring)*2)
	mask, nmask := len(t.ring)-1, len(next)-1
	for id := t.floor + 1; id <= t.top; id++ {
		next[int(id)&nmask] = t.ring[int(id)&mask]
	}
	t.ring = next
}

// drop frees st's slot, recycling the record into the free list, and
// advances the floor over the freed prefix.
func (t *opTable) drop(st *opStats) {
	mask := len(t.ring) - 1
	t.ring[int(st.ID)&mask] = nil
	t.free = append(t.free, st)
	for t.floor < t.top && t.ring[int(t.floor+1)&mask] == nil {
		t.floor++
	}
}
