package engine

import (
	"fmt"
	"reflect"
	"testing"

	"distcount/internal/counter"
	"distcount/internal/registry"
	"distcount/internal/rng"
	"distcount/internal/sim"
	"distcount/internal/workload"
)

// unitDelay is UnitLatency's schedule — every message takes one tick and
// no randomness is drawn — under another type, so the simulator does not
// recognise it as UnitLatency and books service slots at arrival.
type unitDelay struct{}

func (unitDelay) Delay(sim.Message, *rng.Source) int64 { return 1 }

// opRecord is one completed operation as the engine saw it: who started it
// and when, when it completed, its value, and the network's message total
// at that moment.
type opRecord struct {
	id            sim.OpID
	initiator     sim.ProcID
	start, end    int64
	value         int
	ok            bool
	messagesSoFar int64
}

// recorded wraps a counter to log every operation the engine starts and
// every value it takes; the engine takes each value inside the completion
// that produced it, so the network clock then reads the completion time.
type recorded struct {
	counter.Async
	starts map[sim.OpID]opRecord
	log    []opRecord
}

func (r *recorded) Start(at int64, p sim.ProcID) sim.OpID {
	id := r.Async.Start(at, p)
	r.starts[id] = opRecord{id: id, initiator: p, start: at}
	return id
}

func (r *recorded) OpValue(id sim.OpID) (int, bool) {
	v, ok := r.Async.OpValue(id)
	rec := r.starts[id]
	rec.end, rec.value, rec.ok = r.Net().Now(), v, ok
	rec.messagesSoFar = r.Net().MessagesTotal()
	r.log = append(r.log, rec)
	return v, ok
}

// TestServiceBookingPointsAgree: booking a service slot at send (unit
// latency) and at arrival (any other latency model) are one rule applied at
// two points, so every registry row, driven by an open ramp past its knee,
// gives the same report and the same per-operation completions either way
// — at two service costs, under flat, halfslow and straggler profiles, and
// with no faults, message loss or duplication (a plan without crash or
// churn windows keeps booking at send).
func TestServiceBookingPointsAgree(t *testing.T) {
	const n, ops = 16, 240
	profiles := map[string]func(s int64) func(sim.ProcID) int64{
		"flat": func(s int64) func(sim.ProcID) int64 {
			return func(sim.ProcID) int64 { return s }
		},
		"halfslow": func(s int64) func(sim.ProcID) int64 {
			return func(p sim.ProcID) int64 {
				if p%2 == 0 {
					return 4 * s
				}
				return s
			}
		},
		"straggler": func(s int64) func(sim.ProcID) int64 {
			return func(p sim.ProcID) int64 {
				if p == 1 {
					return 8 * s
				}
				return s
			}
		},
	}
	plans := map[string]*sim.FaultPlan{
		"none": nil,
		"loss": {Seed: 3, Loss: 0.01},
		"dup":  {Seed: 3, Dup: 0.05},
	}
	run := func(t *testing.T, algo string, cfg registry.Config) (*Result, []opRecord) {
		t.Helper()
		c, err := registry.NewWith(algo, n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rc := &recorded{Async: c, starts: make(map[sim.OpID]opRecord)}
		gen, err := workload.New("ramprate", workload.Config{N: n, Ops: ops, Seed: 5, RateFrom: 0.1, RateTo: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(rc, gen, Config{Mode: Open, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, rc.log
	}
	for _, algo := range registry.Names() {
		for _, service := range []int64{1, 3} {
			for prof, cost := range profiles {
				for plan, faults := range plans {
					t.Run(fmt.Sprintf("%s/s%d/%s/%s", algo, service, prof, plan), func(t *testing.T) {
						cfg := registry.Config{Window: registry.DefaultWindow, Service: cost(service), Faults: faults}
						atSend, sendLog := run(t, algo, cfg)
						cfg.SimOpts = []sim.Option{sim.WithLatency(unitDelay{})}
						atArrival, arrivalLog := run(t, algo, cfg)
						if len(sendLog) == 0 || atSend.PeakQueueDepth == 0 {
							t.Fatalf("the ramp did not load the counter: %d completions, peak queue %d", len(sendLog), atSend.PeakQueueDepth)
						}
						for i := range min(len(sendLog), len(arrivalLog)) {
							if sendLog[i] != arrivalLog[i] {
								t.Fatalf("completion %d: booked at send %+v, at arrival %+v", i, sendLog[i], arrivalLog[i])
							}
						}
						if len(sendLog) != len(arrivalLog) {
							t.Fatalf("%d completions booked at send, %d at arrival", len(sendLog), len(arrivalLog))
						}
						if !reflect.DeepEqual(atSend, atArrival) {
							t.Fatalf("reports differ:\nat send    %+v\nat arrival %+v", *atSend, *atArrival)
						}
					})
				}
			}
		}
	}
}
