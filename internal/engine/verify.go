package engine

import (
	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/verify"
)

// verifier collects each completed operation's delivered value during a run
// so the post-run evaluation can check the claimed consistency level.
// Collection happens in the completion handler and costs O(1) per op; the
// engine's default runs skip it entirely (Config.Verify). A single counter
// is evaluated at its own guarantee (verify.EvaluateWithFaults); a keyed run
// records next to every value its (shard, key, epoch) so
// verify.EvaluateKeyed can check each shard history at its own claimed level
// and every (key, epoch) segment across migration.
type verifier struct {
	svc     *countersvc.Service
	keyed   bool
	vals    []verify.TimedValue
	at      []verify.Placement // keyed runs: where vals[i] executed
	missing int
}

// newVerifier sizes the history for hint completions (0 = grow by append),
// so a hinted run's collection never reallocates mid-run.
func newVerifier(svc *countersvc.Service, keyed bool, hint int) *verifier {
	v := &verifier{svc: svc, keyed: keyed, vals: make([]verify.TimedValue, 0, hint)}
	if keyed {
		v.at = make([]verify.Placement, 0, hint)
	}
	return v
}

// observe records the value the service delivered for a completion.
func (v *verifier) observe(c completion, value int, ok bool) {
	if !ok {
		v.missing++
		return
	}
	v.vals = append(v.vals, verify.TimedValue{Op: c.id, Value: value, Start: c.start, End: c.done})
	if v.keyed {
		v.at = append(v.at, verify.Placement{Shard: int32(c.shard), Key: int32(c.key), Epoch: int32(c.epoch)})
	}
}

// attach evaluates the collected values into the result. Fault-attributable
// anomalies are excused only when the run's fault plan actually fired. A
// keyed run gets the full sharded report plus its aggregate Summary as
// Verification, so existing render and gate paths treat it like any other.
func (v *verifier) attach(res *Result) {
	fc := verify.FaultContext{
		Fired:  res.Faults != nil && res.Faults.Any(),
		Wedged: res.Wedged,
	}
	if !v.keyed {
		rep := verify.EvaluateWithFaults(v.svc.Counter(0).Guarantee(), v.vals, v.missing, fc)
		res.Verification = &rep
		return
	}
	guarantees := make([]counter.Guarantee, v.svc.Shards())
	for s := range guarantees {
		guarantees[s] = v.svc.Counter(s).Guarantee()
	}
	rep := verify.EvaluateKeyed(guarantees, res.ShardAlgos, v.vals, v.at, v.missing, fc)
	res.KeyedVerification = &rep
	res.Verification = &rep.Summary
}
