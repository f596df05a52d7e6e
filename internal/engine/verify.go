package engine

import (
	"distcount/internal/counter"
	"distcount/internal/countersvc"
	"distcount/internal/verify"
)

// verifier checks each completed operation's delivered value as the run
// goes (Config.Verify; the engine's default runs skip it entirely). It feeds
// a verify.Stream from the bookkeeper stage and advances it with the
// in-flight sweep's frontier, so it holds the operations the frontier has
// not passed yet, not the run. A single counter is checked at its own
// guarantee (the stream's Report, as verify.EvaluateWithFaults would); a
// keyed run files every value under its (shard, key, epoch), so each shard
// history is checked at its own claimed level and every (key, epoch)
// segment across migration (the stream's KeyedReport, as
// verify.EvaluateKeyed would).
type verifier struct {
	keyed   bool
	stream  *verify.Stream
	missing int
}

func newVerifier(svc *countersvc.Service, keyed bool) *verifier {
	if !keyed {
		return &verifier{stream: verify.NewStream(svc.Counter(0).Guarantee())}
	}
	guarantees := make([]counter.Guarantee, svc.Shards())
	for s := range guarantees {
		guarantees[s] = svc.Counter(s).Guarantee()
	}
	return &verifier{keyed: true, stream: verify.NewKeyedStream(guarantees)}
}

// observe checks the value the service delivered for a completion.
func (v *verifier) observe(d *outcome) {
	if !d.ok {
		v.missing++
		return
	}
	v.stream.Observe(d.tv, d.at)
}

// attach finishes the check into the result. Fault-attributable anomalies
// are excused only when the run's fault plan actually fired. A keyed run
// gets the full sharded report plus its aggregate Summary as Verification,
// so existing render and gate paths treat it like any other.
func (v *verifier) attach(res *Result) {
	fc := verify.FaultContext{
		Fired:  res.Faults != nil && res.Faults.Any(),
		Wedged: res.Wedged,
	}
	if !v.keyed {
		rep := v.stream.Report(v.missing, fc)
		res.Verification = &rep
		return
	}
	rep := v.stream.KeyedReport(res.ShardAlgos, v.missing, fc)
	res.KeyedVerification = &rep
	res.Verification = &rep.Summary
}
