package sim

import (
	"fmt"

	"distcount/internal/rng"
)

// This file is the fault-injection layer: a deterministic, seeded schedule
// of message loss, message duplication, processor crash/recover, and
// membership churn, injected at the Send/delivery boundary so every
// protocol and every Transport backend sees the same fault surface.
//
// Semantics, chosen so that verified consistency claims stay meaningful
// under faults:
//
//   - A lost message is destroyed in flight AFTER the sender paid for it:
//     load accounting is unchanged, but the delivery never happens, so the
//     operation is marked lost and wedges (never completes) instead of
//     completing with a silently missing effect. "Visibly stall, no silent
//     gaps." Its record is freed with its last event all the same.
//   - A duplicated message is a genuine second transmission: it is counted
//     in every load metric and delivered with its own latency draw,
//     attributed to the same operation.
//   - A crashed processor neither executes nor sends. Events addressed to
//     it are drained (destroyed, wedging their operations) or — with
//     Freeze — buffered until recovery. Local timers at a crashed processor
//     are always cancelled: a crash loses soft state.
//   - Churn is a repeating crash/recover rotation over the highest-numbered
//     processors, computed arithmetically so that clones replay it exactly
//     and no schedule has to be materialized.
//
// Determinism: probabilistic decisions come from a dedicated rng.Source
// (never the latency RNG, so installing a fault plan does not perturb the
// fault-free schedule), and the Nth-rule decisions depend only on
// per-sender send indices — those are reproduced exactly by any backend
// that delivers the same per-sender send sequence, which is what the
// cross-backend equivalence tests pin.

// NthRule deterministically selects every Every-th protocol send of a
// processor (1-indexed: sends Every, 2·Every, ... are selected). Proc 0
// applies the rule to every sender. Unlike the probabilistic Loss/Dup
// fields, Nth rules consume no randomness, so they fire identically on any
// backend regardless of scheduling.
type NthRule struct {
	Proc  ProcID `json:"proc"`
	Every int64  `json:"every"`
}

// Downtime is one crash/recover window for one processor: down for
// simulated times t with From <= t < To. To == 0 means the processor never
// recovers.
type Downtime struct {
	Proc ProcID `json:"proc"`
	From int64  `json:"from"`
	To   int64  `json:"to,omitempty"`
}

// ChurnSpec is a repeating membership rotation: every Period ticks the next
// of the Procs highest-numbered processors crashes for Down ticks (Down <=
// Period, so at most one churned processor is down at a time). The schedule
// is a pure function of time — cycle c = t/Period takes processor
// n - (c mod Procs) down for the first Down ticks of the cycle — so clones
// replay it exactly. It deliberately rotates over the TAIL of the processor
// range, away from the low-numbered root/holder processors that crash-style
// Downtime entries typically target.
type ChurnSpec struct {
	Procs  int   `json:"procs"`
	Period int64 `json:"period"`
	Down   int64 `json:"down"`
}

// FaultPlan is a complete declarative fault schedule. The zero value
// injects nothing. Plans are immutable once installed: the injector reads
// but never writes them, so clones may share the plan.
type FaultPlan struct {
	// Seed seeds the plan's dedicated random source (default 1). The fault
	// RNG is separate from the network's latency RNG so that a plan with no
	// probabilistic rules leaves the fault-free schedule untouched.
	Seed uint64 `json:"seed,omitempty"`
	// Loss and Dup are i.i.d. per-send probabilities in [0, 1).
	Loss float64 `json:"loss,omitempty"`
	Dup  float64 `json:"dup,omitempty"`
	// DropNth and DupNth are deterministic per-sender counterparts.
	DropNth []NthRule `json:"drop_nth,omitempty"`
	DupNth  []NthRule `json:"dup_nth,omitempty"`
	// Crashes are explicit crash/recover windows.
	Crashes []Downtime `json:"crashes,omitempty"`
	// Churn, when non-nil, adds the rotating crash schedule.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Freeze buffers a crashed processor's incoming messages until recovery
	// instead of draining (destroying) them. Messages to a processor that
	// never recovers are drained regardless.
	Freeze bool `json:"freeze,omitempty"`
}

// Empty reports whether the plan injects nothing.
func (p FaultPlan) Empty() bool {
	return p.Loss == 0 && p.Dup == 0 && len(p.DropNth) == 0 && len(p.DupNth) == 0 &&
		len(p.Crashes) == 0 && p.Churn == nil
}

// hasDowntime reports whether the plan takes any processor down: a crash
// window or churn. Downtime decides a message's fate at its arrival, so a
// network under such a plan books service slots at arrival too.
func (p FaultPlan) hasDowntime() bool {
	return len(p.Crashes) > 0 || p.Churn != nil
}

// validate panics on malformed plans; installing a plan is a programming
// decision, not runtime input (the loadgen CLI validates its flag syntax
// separately).
func (p FaultPlan) validate() {
	if p.Loss < 0 || p.Loss >= 1 {
		panic(fmt.Sprintf("sim: fault loss probability %v outside [0,1)", p.Loss))
	}
	if p.Dup < 0 || p.Dup >= 1 {
		panic(fmt.Sprintf("sim: fault dup probability %v outside [0,1)", p.Dup))
	}
	for _, r := range append(append([]NthRule(nil), p.DropNth...), p.DupNth...) {
		if r.Every < 1 {
			panic(fmt.Sprintf("sim: fault Nth rule with Every %d < 1", r.Every))
		}
	}
	for _, d := range p.Crashes {
		if d.From < 0 || (d.To != 0 && d.To <= d.From) {
			panic(fmt.Sprintf("sim: fault downtime [%d,%d) is empty or negative", d.From, d.To))
		}
	}
	if c := p.Churn; c != nil {
		if c.Procs < 1 || c.Period < 1 || c.Down < 1 || c.Down > c.Period {
			panic(fmt.Sprintf("sim: churn spec %+v needs Procs>=1 and 0<Down<=Period", *c))
		}
	}
}

// FaultStats counts the fault events that actually fired during a run. All
// zeros either means no plan was installed or that the plan never
// triggered — FaultsActive distinguishes the two.
type FaultStats struct {
	// Lost messages were destroyed at send time.
	Lost int64 `json:"lost"`
	// Duplicated counts extra copies enqueued at send time.
	Duplicated int64 `json:"duplicated"`
	// CrashDropped deliveries were destroyed at a down processor.
	CrashDropped int64 `json:"crash_dropped"`
	// CrashDeferred deliveries were frozen until the processor recovered.
	CrashDeferred int64 `json:"crash_deferred"`
	// TimersCancelled counts local timers lost to a crash.
	TimersCancelled int64 `json:"timers_cancelled"`
}

// Any reports whether at least one fault event fired.
func (s FaultStats) Any() bool {
	return s.Lost != 0 || s.Duplicated != 0 || s.CrashDropped != 0 ||
		s.CrashDeferred != 0 || s.TimersCancelled != 0
}

// FaultInjector is the runtime core of a fault plan, shared by the
// simulator and alternative Transport backends (internal/rt): it owns the
// dedicated fault RNG, the per-sender send indices the Nth rules key on,
// and the fired-fault statistics. It is not safe for concurrent use;
// concurrent backends must serialize access themselves.
type FaultInjector struct {
	n     int
	plan  FaultPlan
	rand  *rng.Source
	sends []int64 // per-sender protocol send count; slot 0 unused
	stats FaultStats
}

// NewFaultInjector validates the plan and builds its injector for an
// n-processor system.
func NewFaultInjector(n int, plan FaultPlan) *FaultInjector {
	plan.validate()
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	if c := plan.Churn; c != nil && c.Procs > n {
		cc := *c
		cc.Procs = n
		plan.Churn = &cc
	}
	return &FaultInjector{
		n:     n,
		plan:  plan,
		rand:  rng.New(seed),
		sends: make([]int64, n+1),
	}
}

// Plan returns the installed plan.
func (fi *FaultInjector) Plan() FaultPlan { return fi.plan }

// Stats returns the fault events fired so far.
func (fi *FaultInjector) Stats() FaultStats { return fi.stats }

// Clone returns an independent copy that replays the identical remaining
// fault schedule: same RNG position, same send indices, same counters.
func (fi *FaultInjector) Clone() *FaultInjector {
	if fi == nil {
		return nil
	}
	out := &FaultInjector{
		n:     fi.n,
		plan:  fi.plan,
		rand:  fi.rand.Clone(),
		sends: append([]int64(nil), fi.sends...),
		stats: fi.stats,
	}
	return out
}

func matchNth(rules []NthRule, from ProcID, k int64) bool {
	for _, r := range rules {
		if (r.Proc == 0 || r.Proc == from) && k%r.Every == 0 {
			return true
		}
	}
	return false
}

// SendFate advances from's send index and decides the fate of that send:
// drop destroys the message (the Lost counter fires), dup requests a second
// delivery (the Duplicated counter fires). A dropped message is never also
// duplicated, and duplicate copies must not be fed back through SendFate.
// Deterministic Nth rules are consulted before the probabilistic draws.
func (fi *FaultInjector) SendFate(from ProcID) (drop, dup bool) {
	fi.sends[from]++
	k := fi.sends[from]
	drop = matchNth(fi.plan.DropNth, from, k)
	if !drop && fi.plan.Loss > 0 && fi.rand.Float64() < fi.plan.Loss {
		drop = true
	}
	if drop {
		fi.stats.Lost++
		return true, false
	}
	dup = matchNth(fi.plan.DupNth, from, k)
	if !dup && fi.plan.Dup > 0 && fi.rand.Float64() < fi.plan.Dup {
		dup = true
	}
	if dup {
		fi.stats.Duplicated++
	}
	return false, dup
}

// DownAt reports whether processor p is crashed at time t; when down,
// until is the recovery time and forever marks a processor that never
// recovers. Overlapping downtime windows recover at the latest recovery.
func (fi *FaultInjector) DownAt(p ProcID, t int64) (down bool, until int64, forever bool) {
	for _, d := range fi.plan.Crashes {
		if d.Proc != p || t < d.From {
			continue
		}
		if d.To == 0 {
			return true, 0, true
		}
		if t < d.To {
			down = true
			if d.To > until {
				until = d.To
			}
		}
	}
	if c := fi.plan.Churn; c != nil {
		cycle := t / c.Period
		target := ProcID(fi.n - int(cycle%int64(c.Procs)))
		if target == p {
			start := cycle * c.Period
			if t-start < c.Down {
				down = true
				if end := start + c.Down; end > until {
					until = end
				}
			}
		}
	}
	return down, until, false
}

// NoteCrashDropped, NoteCrashDeferred and NoteTimerCancelled record
// delivery-side fault events; the delivery loop of each backend calls them
// as it enforces crash windows.
func (fi *FaultInjector) NoteCrashDropped()   { fi.stats.CrashDropped++ }
func (fi *FaultInjector) NoteCrashDeferred()  { fi.stats.CrashDeferred++ }
func (fi *FaultInjector) NoteTimerCancelled() { fi.stats.TimersCancelled++ }
