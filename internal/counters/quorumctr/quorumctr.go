// Package quorumctr implements a distributed counter on top of a quorum
// system (internal/quorum): every processor keeps a replica (val, ver); an
// inc reads all replicas of one quorum, adopts the value with the highest
// version, writes (val+1, ver+1) back to the same quorum, and returns val.
//
// Correctness in the sequential model follows from the intersection
// property: the quorum of operation i intersects the quorum of operation
// i-1, so the read phase always sees the latest version — the Hot Spot
// Lemma made constructive. The interesting quantity is the load profile:
// with rotating majorities every operation touches Θ(n) processors (huge
// work, flat distribution); with grids, Θ(√n); with tree quorums the
// quorums are small but the root is in nearly all of them. None reach the
// O(k) of the paper's counter — static quorum systems cannot, which is why
// the paper's Section 4 scheme is dynamic.
//
// Every initiator owns its in-flight probe state (counter.Ops), so any
// number of operations from distinct initiators may be in flight at once —
// the workload engine's regime. Under concurrency the counter remains
// message-accountable and terminating, but two overlapping operations can
// read the same version and hand out the same value: read/write quorum
// replication cannot make the read-increment-write atomic (that is the
// classic register-consensus gap), so the counter is sequentially correct
// only, and the engine's verification measures its duplicate values rather
// than claiming a property it lacks.
package quorumctr

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/quorum"
	"distcount/internal/sim"
)

type (
	readReq  struct{ Origin sim.ProcID }
	readResp struct{ Val, Ver int }
	writeReq struct {
		Origin   sim.ProcID
		Val, Ver int
	}
	writeAck struct{}
)

func (readReq) Kind() string  { return "read-request" }
func (readResp) Kind() string { return "read-response" }
func (writeReq) Kind() string { return "write-request" }
func (writeAck) Kind() string { return "write-ack" }

// replica is one processor's copy of the counter.
type replica struct {
	val, ver int
}

// opState is one initiator's in-flight quorum probe: the quorum it chose,
// the outstanding read/ack counts, and the best (version, value) seen. The
// quorum slice is set once, in initiate, and only ranged over afterwards, so
// a clone shares it (counter.Ops.Clone).
type opState struct {
	quorum       []int
	awaitReads   int
	awaitAcks    int
	bestVal, ver int
}

type proto struct {
	sys      quorum.System
	replicas []replica
	// localOps[p] counts operations initiated by p: the quorum-rotation
	// index is derived from strictly local information (the initiator's id
	// and its own operation count), never from global state — the paper's
	// model has no shared memory. Over the canonical workload (each
	// processor once) this spreads quorums exactly like a round robin.
	localOps []int
	// ops keys each initiator's probe state and records delivered values
	// per operation.
	ops *counter.Ops[opState, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	idx := int(p) - 1 + pr.sys.N()*pr.localOps[p]
	pr.localOps[p]++
	st := pr.ops.Begin(nw, p)
	st.quorum = pr.sys.Quorum(idx)
	st.bestVal, st.ver = -1, -1
	// One boxed request serves the whole quorum (payloads are immutable).
	var req sim.Payload = readReq{Origin: p}
	for _, member := range st.quorum {
		if member == int(p) {
			// Local replica: no messages needed to read your own memory.
			pr.observe(st, pr.replicas[member])
			continue
		}
		st.awaitReads++
		nw.Send(sim.ProcID(member), req)
	}
	if st.awaitReads == 0 {
		pr.startWrite(nw, p, st)
	}
}

func (pr *proto) observe(st *opState, r replica) {
	if r.ver > st.ver {
		st.ver = r.ver
		st.bestVal = r.val
	}
}

func (pr *proto) startWrite(nw sim.Transport, origin sim.ProcID, st *opState) {
	val, ver := st.bestVal+1, st.ver+1
	var req sim.Payload = writeReq{Origin: origin, Val: val, Ver: ver}
	for _, member := range st.quorum {
		if member == int(origin) {
			pr.replicas[member] = replica{val: val, ver: ver}
			continue
		}
		st.awaitAcks++
		nw.Send(sim.ProcID(member), req)
	}
	if st.awaitAcks == 0 {
		pr.ops.Finish(nw, origin, st.bestVal)
	}
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case readReq:
		r := pr.replicas[msg.To]
		nw.Send(pl.Origin, readResp{Val: r.val, Ver: r.ver})
	case readResp:
		// GetFor discriminates stale replies: under fault injection a
		// duplicated readResp may arrive after its operation finished or
		// after the initiator began its next one, and must not perturb that
		// newer probe's counts.
		st, ok := pr.ops.GetFor(nw, msg.To)
		if !ok || st.awaitReads == 0 {
			// Stale, or a duplicated reply arriving after the read phase
			// already closed: the probe has moved on.
			return
		}
		pr.observe(st, replica{val: pl.Val, ver: pl.Ver})
		st.awaitReads--
		if st.awaitReads == 0 {
			pr.startWrite(nw, msg.To, st)
		}
	case writeReq:
		r := &pr.replicas[msg.To]
		if pl.Ver > r.ver {
			r.val, r.ver = pl.Val, pl.Ver
		}
		nw.Send(pl.Origin, writeAck{})
	case writeAck:
		st, ok := pr.ops.GetFor(nw, msg.To)
		if !ok || st.awaitAcks == 0 {
			return
		}
		st.awaitAcks--
		if st.awaitAcks == 0 {
			pr.ops.Finish(nw, msg.To, st.bestVal)
		}
	default:
		panic(fmt.Sprintf("quorumctr: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.replicas = append([]replica(nil), pr.replicas...)
	cp.localOps = append([]int(nil), pr.localOps...)
	cp.ops = pr.ops.Clone()
	return &cp
}

// Machine implements counter.Describer. Replica i and the rotation count of
// initiator i are only ever touched in processor i's execution context, so
// handlers may run concurrently per processor. Sequential-only: replicated
// read/write quorums cannot make the read-increment-write atomic, so
// overlapping operations may duplicate values (see the package comment).
func (pr *proto) Machine() counter.Machine {
	return counter.Machine{
		Name:      "quorum-" + pr.sys.Name(),
		N:         pr.sys.N(),
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.SequentialOnly),
	}
}

// newProto builds the replicas over sys.N() processors. All replicas start
// identical at (0, 0), so the first read observes version 0 everywhere.
func newProto(sys quorum.System) *proto {
	return &proto{
		sys:      sys,
		replicas: make([]replica, sys.N()+1),
		localOps: make([]int, sys.N()+1),
		ops:      counter.NewOps[opState, int](sys.N()),
	}
}

// NewMachine returns the backend-independent protocol descriptor over the
// given quorum system — what both backends run.
func NewMachine(sys quorum.System) counter.Machine { return newProto(sys).Machine() }
