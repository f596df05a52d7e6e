// Package approx implements the ε-approximate distributed counters the
// paper's lower bound prices exactness against: protocols whose returned
// values track the true count only within a declared relative error ε, and
// whose message cost per operation is sub-linear in the count — the
// regime the bound does not cover.
//
// Two protocols share one coordinator-centric core:
//
//   - gxu-threshold (gxu.go): Gibbons-style distributed-streams basic
//     counting in the formulation of Xu (arXiv:1312.0042). Every site
//     counts locally and reports to the coordinator only when its
//     unreported delta crosses a threshold proportional to ε·C/n, so the
//     coordinator's load per operation vanishes as the count grows.
//
//   - css-sample (css.go): a Cohen–Shechner–Stemmer-style robust sampling
//     counter (arXiv:2509.05870). Every site forwards an increment to the
//     coordinator with probability 2^-L, the coordinator credits 2^L per
//     sample, and the level L grows with the count so the expected number
//     of messages for C increments is O(√C)-ish while the relative
//     standard error stays below ε by a fixed safety factor.
//
// Both protocols bootstrap through an exact synchronous phase (central-
// style request/reply against the coordinator) until the count reaches
// warmup = ⌈4n/ε⌉: below that, ε·C is too small to absorb even one
// in-flight increment per site, so approximation cannot be verified — and
// the exact phase trivially satisfies any ε. Past warmup, sites serve
// increments from local state in zero messages, which is what lets the
// measured saturation knee move past every exact scheme's.
//
// The value returned by an operation is a pre-increment estimate of the
// global count, guaranteed (and verified, see internal/verify) to lie
// within (1-ε)·lo .. (1+ε)·hi of the true-count bracket over the
// operation's lifetime.
package approx

import (
	"fmt"

	"distcount/internal/counter"
	"distcount/internal/sim"
)

// Message kinds. Every one carries its fields in the message word, so
// neither protocol boxes a message.
type (
	// syncReqWord/syncValWord are the exact bootstrap phase: a
	// central-style round trip that assigns the true pre-increment count.
	// syncReqWord's word is the origin; syncValWord's is
	// sim.Pair(val, level), level being the css sampling level at the
	// coordinator (0 for gxu).
	syncReqWord struct{}
	syncValWord struct{}
	// reportWord carries a site's accumulated unreported increments to the
	// coordinator (gxu), word sim.Pair(origin, delta); ackWord returns the
	// fresh global total in its word.
	reportWord struct{}
	ackWord    struct{}
	// sampleWord is one sampled increment (css); its word is the level the
	// SITE sampled at, so the coordinator's 2^level credit stays unbiased
	// even when the site's level is stale.
	sampleWord struct{}
	// bcastWord pushes the coordinator's estimate (and css level) to every
	// site, word sim.Pair(total, level).
	bcastWord struct{}
)

func (syncReqWord) Kind() string { return "sync-request" }
func (syncValWord) Kind() string { return "sync-value" }
func (reportWord) Kind() string  { return "report" }
func (ackWord) Kind() string     { return "ack" }
func (sampleWord) Kind() string  { return "sample" }
func (bcastWord) Kind() string   { return "broadcast" }

// core is the state shared by both protocols. Concurrency discipline (what
// makes the rt backend race-free without serializing): base[p] and
// unreported[p] are touched only in site p's initiate and in deliveries
// addressed to p, which the runtime never runs two at a time; total and
// lastBcast are touched only in the coordinator's initiate and deliveries,
// likewise. The op table locks internally.
type core struct {
	coord sim.ProcID
	n     int
	eps   float64
	// warmup is the count below which operations take the exact
	// synchronous path: ⌈4n/ε⌉ unless overridden for tests.
	warmup int

	// base[p] is site p's freshest known global estimate (monotone:
	// updated by max with every sync value, ack, and broadcast, so message
	// reordering cannot regress it). unreported[p] is the site's local
	// increments not yet reported (gxu only).
	base       []int
	unreported []int

	// Coordinator state: total is the global count estimate (exact for
	// gxu — a sum of real increments; unbiased for css — a sum of sampled
	// credits); lastBcast the estimate at the last broadcast.
	total     int
	lastBcast int

	ops *counter.Ops[struct{}, int]
}

func newCore(n int, eps float64, warmup int) core {
	if warmup <= 0 {
		warmup = int(4*float64(n)/eps) + 1
	}
	return core{
		coord:      1,
		n:          n,
		eps:        eps,
		warmup:     warmup,
		base:       make([]int, n+1),
		unreported: make([]int, n+1),
		ops:        counter.NewOps[struct{}, int](n),
	}
}

// lift raises site p's global estimate to v (monotone against reordering).
func (c *core) lift(p sim.ProcID, v int) {
	if v > c.base[p] {
		c.base[p] = v
	}
}

// maybeBroadcast pushes the coordinator's estimate to all sites when it
// has grown by the broadcast threshold — a fraction ε/div of the estimate
// itself, so broadcast cost per increment vanishes as the count grows.
// Broadcasts are suppressed below warmup: every site is still on the exact
// synchronous path there and learns the count from its own replies.
func (c *core) maybeBroadcast(nw sim.Transport, level uint, div int) {
	if c.total < c.warmup {
		return
	}
	b := int(c.eps * float64(c.lastBcast) / float64(div))
	if b < 1 {
		b = 1
	}
	if c.total-c.lastBcast < b {
		return
	}
	c.lastBcast = c.total
	push := sim.Pair(c.total, int(level))
	for q := 1; q <= c.n; q++ {
		if sim.ProcID(q) == c.coord {
			continue
		}
		nw.SendWord(sim.ProcID(q), bcastWord{}, push)
	}
}

// machine describes the protocol pr built on this core. Per-site state is
// confined to each site's own execution context and coordinator state to
// the coordinator's, so handlers may run concurrently per processor; values
// are promised only to lie within ±ε of the true prefix count.
func (c *core) machine(name string, pr sim.Protocol, initiate func(sim.Transport, sim.ProcID)) counter.Machine {
	return counter.Machine{
		Name:      name,
		N:         c.n,
		Proto:     pr,
		Initiate:  initiate,
		Value:     c.ops.Take,
		Guarantee: counter.Approx(c.eps),
	}
}

// clone deep-copies the core for network cloning.
func (c *core) clone() core {
	cp := *c
	cp.base = append([]int(nil), c.base...)
	cp.unreported = append([]int(nil), c.unreported...)
	cp.ops = c.ops.Clone()
	return cp
}

func badPayload(name string, pl sim.Payload) string {
	return fmt.Sprintf("approx/%s: unexpected payload %T", name, pl)
}
