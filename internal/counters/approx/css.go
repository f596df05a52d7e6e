package approx

import (
	"distcount/internal/counter"
	"distcount/internal/rng"
	"distcount/internal/sim"
)

// DefaultEpsilonSample is the default error bound of the css-sample
// counter. Sampling error is stochastic, and the level formula needs
// ε²·C ≥ 2·cssSafety before it can shed any messages at all, so the
// sampling scheme defaults to a coarser bound than the threshold scheme —
// which is the honest trade it offers: more error, fewer messages, and
// robustness to losing any individual sample.
const DefaultEpsilonSample = 0.25

// cssSafety is the variance safety factor K in the sampling level formula
// L = ⌊log2(ε²·C/K)⌋: each increment is sampled with probability 2^-L and
// credited 2^L, so the estimate's relative standard error is about
// ε/√(2K) = ε/8 — a mid-run excursion has to be many standard deviations
// out before it approaches the claimed bound, while sampling still engages
// early enough (ε²·C ≥ 2K) that an overload ramp reaches level 1 before
// the coordinator saturates.
const cssSafety = 32

// cssProto is the Cohen–Shechner–Stemmer-style robust sampling counter.
// Past warmup, an increment at site p draws from the site's deterministic
// per-site stream and, with probability 2^-L, ships one sample message;
// the coordinator credits 2^level-of-the-sample, keeping the estimate
// unbiased even under stale levels. The returned value is base[p] — the
// last coordinator estimate the site saw — refreshed by broadcasts every
// ε/8 of the count. No acks: a sample is fire-and-forget, which is the
// robustness of the scheme (and why its values, unlike gxu's, can also
// overestimate when sampling luck runs high).
type cssProto struct {
	core
	seed uint64
	// rngs[p] is site p's private draw stream; draws happen only in p's
	// initiate, whose per-site order is deterministic on both backends.
	rngs []*rng.Source
	// level[p] is the sampling level site p last learned (monotone).
	level []uint
}

var _ sim.CloneableProtocol = (*cssProto)(nil)

func newCSSProto(n int, cfg config) *cssProto {
	pr := &cssProto{
		core:  newCore(n, cfg.eps, cfg.warmup),
		seed:  cfg.seed,
		rngs:  make([]*rng.Source, n+1),
		level: make([]uint, n+1),
	}
	for p := 1; p <= n; p++ {
		// Split one seed into n independent streams (SplitMix64's golden-
		// ratio increment keeps the per-site states well separated).
		pr.rngs[p] = rng.New(cfg.seed + uint64(p)*0x9e3779b97f4a7c15)
	}
	return pr
}

// levelOf is the sampling level for the current estimate: the largest L
// with 2^L ≤ ε²·total/cssSafety, computed by integer halving so both
// backends and all platforms agree bit-for-bit.
func (pr *cssProto) levelOf() uint {
	x := pr.eps * pr.eps * float64(pr.total) / cssSafety
	var l uint
	for x >= 2 {
		x /= 2
		l++
	}
	return l
}

func (pr *cssProto) initiate(nw sim.Transport, p sim.ProcID) {
	pr.ops.Begin(nw, p)
	if p == pr.coord {
		v := pr.total
		pr.total++
		pr.maybeBroadcast(nw, pr.levelOf(), 8)
		pr.lift(p, v)
		pr.ops.Finish(nw, p, v)
		return
	}
	if pr.base[p] < pr.warmup {
		nw.Send(pr.coord, syncReqPayload{Origin: p})
		return
	}
	v := pr.base[p]
	l := pr.level[p]
	// Sample with probability 2^-l: the low l bits of one fresh draw are
	// all zero. l = 0 masks nothing and always samples.
	if pr.rngs[p].Uint64()&((1<<l)-1) == 0 {
		nw.Send(pr.coord, samplePayload{Level: l})
	}
	pr.ops.Finish(nw, p, v)
}

func (pr *cssProto) Deliver(nw sim.Transport, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case syncReqPayload:
		nw.Send(pl.Origin, syncValPayload{Val: pr.total, Level: pr.levelOf()})
		pr.total++
		pr.maybeBroadcast(nw, pr.levelOf(), 8)
	case syncValPayload:
		pr.lift(msg.To, pl.Val)
		pr.liftLevel(msg.To, pl.Level)
		pr.ops.Finish(nw, msg.To, pl.Val)
	case samplePayload:
		// Credit at the level the SITE sampled at: E[credit] = 1 per
		// increment regardless of how stale that level is.
		pr.total += 1 << pl.Level
		pr.maybeBroadcast(nw, pr.levelOf(), 8)
	case bcastPayload:
		pr.lift(msg.To, pl.Total)
		pr.liftLevel(msg.To, pl.Level)
	default:
		panic(badPayload("css-sample", msg.Payload))
	}
}

func (pr *cssProto) liftLevel(p sim.ProcID, l uint) {
	if l > pr.level[p] {
		pr.level[p] = l
	}
}

func (pr *cssProto) CloneProtocol() sim.Protocol {
	cp := &cssProto{
		core:  pr.clone(),
		seed:  pr.seed,
		rngs:  make([]*rng.Source, len(pr.rngs)),
		level: append([]uint(nil), pr.level...),
	}
	for i, r := range pr.rngs {
		if r != nil {
			cp.rngs[i] = r.Clone()
		}
	}
	return cp
}

// Machine implements counter.Describer.
func (pr *cssProto) Machine() counter.Machine {
	return pr.machine("css-sample", pr, pr.initiate)
}

// NewSampleMachine returns the backend-independent descriptor of the
// css-sample counter over n processors — what both backends run.
func NewSampleMachine(n int, opts ...Option) counter.Machine {
	return newCSSProto(n, newConfig(DefaultEpsilonSample, opts)).Machine()
}
