package approx

import (
	"distcount/internal/counter"
	"distcount/internal/sim"
)

// DefaultEpsilonThreshold is the default error bound of the gxu-threshold
// counter. The threshold scheme's accuracy is deterministic (only real
// increments are ever counted; the error is pure staleness), so it can
// afford a tight bound.
const DefaultEpsilonThreshold = 0.05

// gxuProto is the Gibbons/Xu threshold-broadcast basic counter. Past the
// warmup count, an increment at site p is served entirely from local
// state: the returned value is base[p] + unreported[p], the increment
// bumps unreported[p], and only when unreported[p] crosses the report
// threshold ε·base/(2n) does the site ship its delta to the coordinator
// (which acks with the fresh total). The error budget splits three ways:
// at most n·T ≈ ε·C/2 increments sit unreported across sites, the
// broadcast threshold ε/4 bounds how far any site's base lags the
// coordinator, and the remaining ε/4·C ≥ n (by the warmup choice) absorbs
// increments in flight. Values can only ever underestimate — total is a
// sum of increments that really happened — so the (1+ε) side is free.
type gxuProto struct {
	core
}

var _ sim.CloneableProtocol = (*gxuProto)(nil)

// reportThreshold is the unreported-delta size at which site p ships its
// count: a fraction ε/(2n) of the site's current estimate, so aggregate
// unreported staleness stays below ε·C/2 while reports per operation
// vanish as 2n/(ε·C).
func (pr *gxuProto) reportThreshold(p sim.ProcID) int {
	t := int(pr.eps * float64(pr.base[p]) / float64(2*pr.n))
	if t < 1 {
		t = 1
	}
	return t
}

func (pr *gxuProto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == pr.coord {
		// The coordinator owns the authoritative total: its own
		// increments are exact and free, like the central holder's.
		v := pr.total
		pr.total++
		pr.maybeBroadcast(nw, 0, 4)
		pr.lift(p, v)
		pr.ops.Finish(nw, p, v)
		return
	}
	if pr.base[p] < pr.warmup {
		nw.Send(pr.coord, syncReqPayload{Origin: p})
		return
	}
	v := pr.base[p] + pr.unreported[p]
	pr.unreported[p]++
	if pr.unreported[p] >= pr.reportThreshold(p) {
		nw.Send(pr.coord, reportPayload{Origin: p, Delta: pr.unreported[p]})
		pr.unreported[p] = 0
	}
	pr.ops.Finish(nw, p, v)
}

func (pr *gxuProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case syncReqPayload:
		nw.Send(pl.Origin, syncValPayload{Val: pr.total})
		pr.total++
		pr.maybeBroadcast(nw, 0, 4)
	case syncValPayload:
		pr.lift(msg.To, pl.Val)
		pr.ops.Finish(nw, msg.To, pl.Val)
	case reportPayload:
		pr.total += pl.Delta
		nw.Send(pl.Origin, ackPayload{Total: pr.total})
		pr.maybeBroadcast(nw, 0, 4)
	case ackPayload:
		pr.lift(msg.To, pl.Total)
	case bcastPayload:
		pr.lift(msg.To, pl.Total)
	default:
		panic(badPayload("gxu-threshold", msg.Payload))
	}
}

func (pr *gxuProto) CloneProtocol() sim.Protocol {
	return &gxuProto{core: pr.clone()}
}

// Machine implements counter.Describer.
func (pr *gxuProto) Machine() counter.Machine {
	return pr.machine("gxu-threshold", pr, pr.initiate)
}

func newGXUProto(n int, cfg config) *gxuProto {
	return &gxuProto{core: newCore(n, cfg.eps, cfg.warmup)}
}

// NewThresholdMachine returns the backend-independent descriptor of the
// gxu-threshold counter over n processors — what both backends run.
func NewThresholdMachine(n int, opts ...Option) counter.Machine {
	return newGXUProto(n, newConfig(DefaultEpsilonThreshold, opts)).Machine()
}
