package core

import "distcount/internal/sim"

// Message-size accounting. The paper: "Note that in this way we were able
// to keep the length of messages as short as O(log n) bits." Every payload
// of the tree protocol carries a constant number of identifiers and small
// integers, so each message costs O(log n) bits; the sizes below are
// reported to the network (sim.BitSized) and the test suite asserts the
// O(log n) envelope.

// tagBits distinguishes the protocol's message kinds.
const tagBits = 3

// valueSizer is implemented by request and reply values that size
// themselves (small structs of the extension data types), and by root
// states, which a root handoff carries.
type valueSizer interface {
	Bits() int
}

// valueBits sizes a request/reply value: the counter's replies are ints,
// the extension data types use bools and small structs that implement
// valueSizer.
func valueBits(v any) int {
	switch val := v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int:
		if val < 0 {
			val = -val
		}
		return sim.BitsFor(val)
	case valueSizer:
		return val.Bits()
	default:
		// Unknown payload types are charged a machine word; extension
		// states that care implement valueSizer.
		return 64
	}
}

// Bits implements sim.BitSized: the fields packed into the word, the same
// size as incPayload's with a nil request.
func (incWord) Bits(w int64) int {
	target, origin := sim.Unpair(w)
	return tagBits + sim.BitsFor(target) + sim.BitsFor(origin)
}

// Bits implements sim.BitSized.
func (p incPayload) Bits(int64) int {
	return tagBits + sim.BitsFor(p.Target) + sim.BitsFor(int(p.Origin)) + valueBits(p.Req)
}

// Bits implements sim.BitSized.
func (p valuePayload) Bits(int64) int {
	return tagBits + valueBits(p.Reply)
}

// Bits implements sim.BitSized. A root job carrying the state is charged
// the state's size too: the counter's value val in log₂(val) bits.
func (p handoffJobPayload) Bits(int64) int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(p.Retirement) + sim.BitsFor(int(p.ParentProc)) +
		valueBits(p.State)
}

// Bits implements sim.BitSized.
func (p handoffParentPayload) Bits(int64) int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(int(p.ParentProc))
}

// Bits implements sim.BitSized.
func (p handoffChildPayload) Bits(int64) int {
	return tagBits + sim.BitsFor(p.Node) + sim.BitsFor(p.Idx) + sim.BitsFor(int(p.ChildProc))
}

// Bits implements sim.BitSized.
func (p newIDPayload) Bits(int64) int {
	target := p.Target
	if target < 0 {
		target = 0 // leaf marker
	}
	return tagBits + sim.BitsFor(target) + sim.BitsFor(p.Changed) + sim.BitsFor(int(p.NewProc))
}

var (
	_ sim.BitSized = incWord{}
	_ sim.BitSized = incPayload{}
	_ sim.BitSized = valuePayload{}
	_ sim.BitSized = handoffJobPayload{}
	_ sim.BitSized = handoffParentPayload{}
	_ sim.BitSized = handoffChildPayload{}
	_ sim.BitSized = newIDPayload{}
)
