package core

import (
	"fmt"
	"slices"

	"distcount/internal/sim"
)

// checker instruments a run of the communication-tree counter with the
// paper's lemmas, recording violations instead of failing so that ablation
// configurations (which deliberately break the lemma preconditions) can be
// measured. With the default retirement threshold the test suite asserts
// that no violation is ever recorded.
//
// The checker is an observer of the whole run, not protocol state: it sees
// every processor's retirements and counts in one place, which only the
// single-threaded simulator can offer, and its per-operation windows assume
// the sequential model. Only core.New's Tree turns it on; NewMachine, the
// protocol both backends run, leaves it off.
//
// Checked per operation:
//
//   - Retirement Lemma: "No node retires more than once during any single
//     inc operation."
//   - Grow Old Lemma: "If an inner node does not retire during an inc
//     operation it sends and receives at most four messages."
//
// Checked continuously:
//
//   - Identifier uniqueness: no two inner nodes on levels 1..k ever share a
//     current processor (the paper: "We will make sure that no two inner
//     nodes on levels 1 through k ever have the same identifiers").
//   - Pool bounds: a successor processor always lies inside the node's
//     preassigned replacement pool (Number of Retirements Lemma).
type checker struct {
	g         geometry
	retireAge int

	opSeq    int32
	msgStamp []int32
	msgCount []int32
	retStamp []int32
	retCount []int32
	touched  []int

	// owner[p] is the inner node (level >= 1) processor p currently works
	// for, 0 when none: node 0 is the root, which is never recorded.
	owner []int32

	violations     []string
	violationCount int64

	// GrowOldMax is the largest per-operation message count observed at an
	// inner node that did not retire during that operation (paper bound: 4).
	growOldMax int
	// retirePerOpMax is the largest number of retirements of a single node
	// within one operation (paper bound: 1).
	retirePerOpMax int
}

const maxRecordedViolations = 64

func newChecker(g geometry, retireAge int, nodes []node) *checker {
	c := &checker{
		g:         g,
		retireAge: retireAge,
		msgStamp:  make([]int32, len(nodes)),
		msgCount:  make([]int32, len(nodes)),
		retStamp:  make([]int32, len(nodes)),
		retCount:  make([]int32, len(nodes)),
		owner:     make([]int32, g.n+1),
	}
	for id := range nodes {
		if nodes[id].level == 0 {
			continue
		}
		p := nodes[id].poolStart
		if prev := c.owner[p]; prev != 0 {
			c.violate("initial identifiers collide: nodes %d and %d both at %v", prev, id, p)
		}
		c.owner[p] = int32(id)
	}
	return c
}

func (c *checker) violate(format string, args ...any) {
	c.violationCount++
	if len(c.violations) < maxRecordedViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// beginOp opens a new operation window, closing the previous one: in the
// sequential model an operation begins only once the one before it has
// quiesced.
func (c *checker) beginOp() {
	c.endOp()
	c.opSeq++
}

// endOp evaluates the per-operation lemmas for the open window and closes
// it. The tree's readouts call it, so the last operation's window is
// counted without a further operation; a closed window has no touched nodes
// left, so calling it again adds nothing.
func (c *checker) endOp() {
	for _, id := range c.touched {
		msgs, rets := 0, 0
		if c.msgStamp[id] == c.opSeq {
			msgs = int(c.msgCount[id])
		}
		if c.retStamp[id] == c.opSeq {
			rets = int(c.retCount[id])
		}
		if rets > c.retirePerOpMax {
			c.retirePerOpMax = rets
		}
		if rets > 1 {
			c.violate("retirement lemma: node %d retired %d times in op %d", id, rets, c.opSeq)
		}
		if rets == 0 && msgs > 4 {
			c.violate("grow old lemma: non-retiring node %d handled %d messages in op %d", id, msgs, c.opSeq)
		}
		if rets == 0 && msgs > c.growOldMax {
			c.growOldMax = msgs
		}
	}
	c.touched = c.touched[:0]
}

// nodeMsgs records delta messages handled by node id in the current op.
func (c *checker) nodeMsgs(id, delta int) {
	if c.msgStamp[id] != c.opSeq {
		c.msgStamp[id] = c.opSeq
		c.msgCount[id] = 0
		if c.retStamp[id] != c.opSeq {
			c.touched = append(c.touched, id)
		}
	}
	c.msgCount[id] += int32(delta)
}

// retirement records a retirement of node id and checks pool bounds and
// identifier uniqueness.
func (c *checker) retirement(id, level int, old, succ, poolStart sim.ProcID, poolSize int) {
	if c.retStamp[id] != c.opSeq {
		c.retStamp[id] = c.opSeq
		c.retCount[id] = 0
		if c.msgStamp[id] != c.opSeq {
			c.touched = append(c.touched, id)
		}
	}
	c.retCount[id]++

	if succ < poolStart || int(succ-poolStart) >= poolSize {
		c.violate("pool bound: node %d successor %v outside pool [%v,%v)", id, succ, poolStart, poolStart+sim.ProcID(poolSize))
	}
	if level == 0 {
		return
	}
	if int(c.owner[old]) != id {
		c.violate("occupancy: node %d retiring from %v which is not recorded as its processor", id, old)
	} else {
		c.owner[old] = 0
	}
	if prev := c.owner[succ]; prev != 0 {
		c.violate("identifier collision: node %d moved to %v already serving node %d", id, succ, prev)
	}
	c.owner[succ] = int32(id)
}

// poolExhausted records a retirement that could not happen.
func (c *checker) poolExhausted(id int) {
	c.violate("pool exhausted: node %d needed a successor beyond its pool", id)
}

func (c *checker) clone() *checker {
	cp := *c
	cp.msgStamp = slices.Clone(c.msgStamp)
	cp.msgCount = slices.Clone(c.msgCount)
	cp.retStamp = slices.Clone(c.retStamp)
	cp.retCount = slices.Clone(c.retCount)
	cp.touched = slices.Clone(c.touched)
	cp.owner = slices.Clone(c.owner)
	cp.violations = slices.Clone(c.violations)
	return &cp
}
