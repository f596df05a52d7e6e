// Package cnet implements the counting networks of Aspnes, Herlihy & Shavit
// ("Counting networks and multi-processor coordination", STOC 1991) — both
// the bitonic and the periodic construction — the low-contention counters
// the paper cites as related work.
//
// A counting network of width w is a layered network of balancers: two-input
// two-output toggles that route incoming tokens alternately to their two
// output wires. The bitonic network is isomorphic to Batcher's bitonic
// sorting network with comparators replaced by balancers ((lg w)(lg w+1)/2
// stages); the periodic network is lg w identical balanced blocks (lg²w
// stages), isomorphic to the Dowd/Perl/Rudolph/Saks periodic sorting
// network. Output wire i carries the values i, i+w, i+2w, ...: together the
// outputs hand out exactly 0, 1, 2, ... (the step property), for any
// distribution of tokens over input wires.
//
// Balancers are spread round-robin over the processors, so the per-balancer
// traffic — n·depth/…(w/2 per stage) — is distributed: a counting network
// trades total messages (each operation costs depth+2) for the absence of a
// single hot spot among the balancers. Over the paper's canonical workload
// the bottleneck is Θ(n·log²w/(min(n, w·log²w))) by counting; the paper's
// tree counter still wins asymptotically because the network's total
// message count is ω(n).
package cnet

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

type (
	// tokenPayload traverses the network: it is about to enter the
	// balancer of stage Stage on wire Wire.
	tokenPayload struct {
		Stage  int
		Wire   int
		Origin sim.ProcID
	}
	// exitPayload delivers a token to its output-wire owner.
	exitPayload struct {
		Wire   int
		Origin sim.ProcID
	}
	// valuePayload returns the assigned value to the initiator.
	valuePayload struct{ Val int }
)

func (tokenPayload) Kind() string { return "token" }
func (exitPayload) Kind() string  { return "exit" }
func (valuePayload) Kind() string { return "value" }

// balancer is a two-wire toggle.
type balancer struct {
	a, b int // wire pair, a < b
	// first is the wire (a or b) that receives the next token when toggle
	// is false; orientation follows the underlying bitonic comparator.
	first  int
	host   sim.ProcID
	toggle bool
}

type proto struct {
	n, width     int
	construction Construction
	balancers    []balancer
	// stageWire[s][w] is the balancer index handling wire w in stage s.
	stageWire [][]int
	// wireCount[w] is the next value output wire w will hand out.
	wireCount []int
	// ops tracks the in-flight traversal per initiator and records each
	// operation's delivered value.
	ops *counter.Ops[struct{}, int]
}

var _ sim.CloneableProtocol = (*proto)(nil)

// Construction selects the counting-network topology.
type Construction int

// The two constructions of Aspnes, Herlihy & Shavit.
const (
	// Bitonic is isomorphic to Batcher's bitonic sorting network:
	// (lg w)(lg w + 1)/2 stages.
	Bitonic Construction = iota + 1
	// Periodic is lg w identical balanced blocks (mirror pairings within
	// shrinking spans): lg²w stages. Deeper than bitonic but with a
	// regular, repeating structure.
	Periodic
)

// String implements fmt.Stringer.
func (c Construction) String() string {
	switch c {
	case Bitonic:
		return "bitonic"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("construction(%d)", int(c))
	}
}

// newProto builds a counting network of the given width (a power of two).
func newProto(n, width int, construction Construction) *proto {
	if width < 2 || width&(width-1) != 0 {
		panic(fmt.Sprintf("cnet: width %d must be a power of two >= 2", width))
	}
	pr := &proto{
		n:            n,
		width:        width,
		construction: construction,
		wireCount:    make([]int, width),
		ops:          counter.NewOps[struct{}, int](n),
	}
	for w := 0; w < width; w++ {
		pr.wireCount[w] = w
	}
	switch construction {
	case Bitonic:
		pr.buildBitonic()
	case Periodic:
		pr.buildPeriodic()
	default:
		panic(fmt.Sprintf("cnet: unknown construction %d", construction))
	}
	return pr
}

// buildBitonic emits Batcher's bitonic stages: for block size k and
// distance j, wire i pairs with i^j; the comparator ascends (min toward the
// lower wire) when i&k == 0 and descends otherwise. A balancer's "first"
// output is the comparator's min wire.
func (pr *proto) buildBitonic() {
	width := pr.width
	for k := 2; k <= width; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			row := make([]int, width)
			for i := 0; i < width; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				first := i
				if i&k != 0 {
					first = l
				}
				pr.addBalancer(row, i, l, first)
			}
			pr.stageWire = append(pr.stageWire, row)
		}
	}
}

// buildPeriodic emits lg w identical "balanced blocks" (the AHS periodic
// network): within a block, the first stage pairs each wire with its mirror
// across the full width, the next stage mirrors within each half, and so on
// down to spans of two; the first output is the lower wire. The isomorphic
// comparator network is the balanced periodic sorting network of Dowd,
// Perl, Rudolph & Saks, which sorts after lg w blocks — hence the balancing
// network counts.
func (pr *proto) buildPeriodic() {
	width := pr.width
	blocks := 0
	for 1<<blocks < width {
		blocks++
	}
	for b := 0; b < blocks; b++ {
		for span := width; span >= 2; span >>= 1 {
			row := make([]int, width)
			for base := 0; base < width; base += span {
				for i := 0; i < span/2; i++ {
					pr.addBalancer(row, base+i, base+span-1-i, base+i)
				}
			}
			pr.stageWire = append(pr.stageWire, row)
		}
	}
}

// addBalancer registers a balancer on wires (a, b) with the given first
// output and fills the stage row.
func (pr *proto) addBalancer(row []int, a, b, first int) {
	idx := len(pr.balancers)
	pr.balancers = append(pr.balancers, balancer{
		a:     a,
		b:     b,
		first: first,
		host:  sim.ProcID(idx%pr.n + 1),
	})
	row[a], row[b] = idx, idx
}

// Depth returns the number of stages: (lg w)(lg w + 1)/2.
func (pr *proto) depth() int { return len(pr.stageWire) }

func (pr *proto) wireOwner(w int) sim.ProcID {
	return sim.ProcID(w%pr.n + 1)
}

func (pr *proto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	// The entry wire is a strictly local choice (the initiator's own id):
	// counting networks deliver exact counts for ANY input distribution,
	// and a global entry rotation would be shared state the paper's
	// message-passing model does not allow — it would even smuggle
	// information between operations behind the Hot Spot Lemma's back.
	entry := (int(p) - 1) % pr.width
	// Read only the balancer's immutable host field: copying the whole
	// struct would also read its toggle, which the host processor flips
	// concurrently on the rt backend.
	host := pr.balancers[pr.stageWire[0][entry]].host
	nw.Send(host, tokenPayload{Stage: 0, Wire: entry, Origin: p})
}

func (pr *proto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case tokenPayload:
		b := &pr.balancers[pr.stageWire[pl.Stage][pl.Wire]]
		out := b.first
		if b.toggle {
			out = b.a + b.b - b.first // the other wire
		}
		b.toggle = !b.toggle
		next := pl.Stage + 1
		if next == pr.depth() {
			nw.Send(pr.wireOwner(out), exitPayload{Wire: out, Origin: pl.Origin})
			return
		}
		nw.Send(pr.balancers[pr.stageWire[next][out]].host, tokenPayload{
			Stage:  next,
			Wire:   out,
			Origin: pl.Origin,
		})
	case exitPayload:
		val := pr.wireCount[pl.Wire]
		pr.wireCount[pl.Wire] += pr.width
		nw.Send(pl.Origin, valuePayload{Val: val})
	case valuePayload:
		pr.ops.Finish(nw, msg.To, pl.Val)
	default:
		panic(fmt.Sprintf("cnet: unexpected payload %T", msg.Payload))
	}
}

func (pr *proto) CloneProtocol() sim.Protocol {
	cp := *pr
	cp.balancers = append([]balancer(nil), pr.balancers...)
	cp.wireCount = append([]int(nil), pr.wireCount...)
	cp.ops = pr.ops.Clone()
	// stageWire is immutable after construction and can be shared.
	return &cp
}

// Machine implements counter.Describer. Each balancer's toggle lives at its
// host processor and each output wire's count at its owner, so handlers may
// run concurrently per processor. Quiescent: the step property guarantees
// exactly-once values under any schedule, but — famously — not real-time
// order (Herlihy/Shavit/Waarts), which experiment E13 demonstrates against
// the paper's tree counter.
func (pr *proto) Machine() counter.Machine {
	name := "cnet"
	if pr.construction == Periodic {
		name = "cnet-periodic"
	}
	return counter.Machine{
		Name:      name,
		N:         pr.n,
		Proto:     pr,
		Initiate:  pr.initiate,
		Value:     pr.ops.Take,
		Guarantee: counter.Exact(counter.Quiescent),
	}
}

// Option configures the counter.
type Option func(*cfg)

type cfg struct {
	width        int
	construction Construction
}

// WithWidth sets the network width (a power of two >= 2). The default is
// the smallest power of two >= min(n, 16).
func WithWidth(w int) Option {
	return func(c *cfg) { c.width = w }
}

// WithConstruction selects the network topology (default Bitonic).
func WithConstruction(con Construction) Option {
	return func(c *cfg) { c.construction = con }
}

func build(n int, opts []Option) *proto {
	c := cfg{construction: Bitonic}
	for _, o := range opts {
		o(&c)
	}
	if c.width == 0 {
		c.width = 2
		for c.width < n && c.width < 16 {
			c.width <<= 1
		}
	}
	return newProto(n, c.width, c.construction)
}

// NewMachine returns the backend-independent protocol descriptor for n
// processors — what both backends run.
func NewMachine(n int, opts ...Option) counter.Machine {
	return build(n, opts).Machine()
}
