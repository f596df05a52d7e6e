package rt

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"distcount/internal/core"
	"distcount/internal/counter"
	"distcount/internal/counters/central"
	"distcount/internal/counters/combining"
	"distcount/internal/counters/difftree"
	"distcount/internal/sim"
)

// relay is a protocol payload carrying an adopted operation's token to
// another processor.
type relay struct {
	tok  sim.OpToken
	then string // what the receiver does with it
}

func (relay) Kind() string { return "relay" }

type ack struct{}

func (ack) Kind() string { return "ack" }

// relayProto hands tokens between processors: the operation's initiator
// adopts it and sends the token to processor 2, which — on its own goroutine
// — spends it as the message says.
type relayProto struct {
	mu     sync.Mutex
	panics []string
}

func (r *relayProto) spend(what string, f func()) {
	defer func() {
		if p := recover(); p != nil {
			r.mu.Lock()
			r.panics = append(r.panics, fmt.Sprintf("%s: %v", what, p))
			r.mu.Unlock()
		}
	}()
	f()
}

func (r *relayProto) Deliver(nw sim.Transport, msg sim.Message) {
	m, ok := msg.Payload.(relay)
	if !ok {
		return
	}
	switch m.then {
	case "sendas":
		nw.SendAs(m.tok, 3, ack{}, 0)
	case "release":
		nw.Release(m.tok)
	case "unknown":
		nw.Release(m.tok)
		r.spend("release of a never-issued token", func() { nw.Release(sim.TokenFor(1<<40, 0)) })
		r.spend("sendas of a never-issued token", func() { nw.SendAs(sim.TokenFor(1<<40, 0), 3, ack{}, 0) })
	}
}

// Registered returns how many operations r's op table holds: the adopted
// ones whose records are not yet freed. Exported for the external tests.
func Registered(r *Runtime) int {
	r.opsMu.Lock()
	defer r.opsMu.Unlock()
	return len(r.ops)
}

// TestLazyOpRegistry: the op table is written by Adopt only. A token adopted
// on one processor's goroutine still resolves on another's for SendAs and
// Release; a token no Adopt issued, or whose operation has completed, still
// panics; and the table is empty at quiescence.
func TestLazyOpRegistry(t *testing.T) {
	proto := &relayProto{}
	var then string
	var spent sim.OpToken
	r := New(counter.Machine{
		Name: "relay", N: 3, Proto: proto,
		Initiate: func(nw counter.Transport, p sim.ProcID) {
			if then == "spent" {
				// A later operation presents the token of a completed one.
				proto.spend("release of a completed op's token", func() { nw.Release(spent) })
				return
			}
			spent = nw.Adopt()
			nw.Send(2, relay{tok: spent, then: then})
		},
		Value:     func(sim.OpID) (int, bool) { return 0, true },
		Guarantee: counter.Exact(counter.Linearizable),
	})
	defer r.Close()
	for _, then = range []string{"sendas", "release", "unknown", "spent"} {
		if _, err := r.Inc(1); err != nil {
			t.Fatalf("%s: %v", then, err)
		}
		if open := Registered(r); open != 0 {
			t.Fatalf("%s: %d operations still registered at quiescence", then, open)
		}
	}
	want := []string{"release of a never-issued", "sendas of a never-issued", "release of a completed op"}
	if len(proto.panics) != len(want) {
		t.Fatalf("panics %q, want one each for %q", proto.panics, want)
	}
	for i, w := range want {
		if got := proto.panics[i]; !strings.HasPrefix(got, w) || !strings.Contains(got, "spent or unknown token") {
			t.Errorf("panic %d = %q, want the spent-or-unknown-token panic of the %s token", i, got, w)
		}
	}
}

// TestRegistryHoldsAdoptedOpsOnly: the protocols that adopt (combining,
// difftree) leave the op table empty at quiescence; central and the paper's
// tree, which never adopt, never touch it — the table stays empty while their
// operations are in flight.
func TestRegistryHoldsAdoptedOpsOnly(t *testing.T) {
	const n, rounds = 8, 25
	adopts := map[string]bool{"combining": true, "difftree": true}
	for _, m := range []counter.Machine{
		central.NewMachine(n),
		core.NewMachine(n),
		combining.NewMachine(n, combining.WithWindow(4)),
		difftree.NewMachine(n, difftree.WithWindow(4)),
	} {
		t.Run(m.Name, func(t *testing.T) {
			r := New(m)
			defer r.Close()
			done := make(chan struct{}, r.N())
			r.OnOpDone(func(sim.OpDone) { done <- struct{}{} })
			peak := 0
			for i := 0; i < rounds; i++ {
				for p := 1; p <= r.N(); p++ {
					r.Start(0, sim.ProcID(p))
				}
				for p := 1; p <= r.N(); p++ {
					peak = max(peak, Registered(r))
					<-done
				}
				if open := Registered(r); open != 0 {
					t.Fatalf("round %d: %d operations registered at quiescence", i, open)
				}
			}
			if !adopts[m.Name] && peak != 0 {
				t.Fatalf("%d operations registered at once, want none ever: %s never adopts", peak, m.Name)
			}
			// The counters: every message is counted once, by its sender.
			sent, _ := r.Loads(nil, nil)
			var sum int64
			for _, s := range sent {
				sum += s
			}
			if total := r.MessagesTotal(); total != sum || total == 0 {
				t.Fatalf("MessagesTotal = %d, per-processor sent counts sum to %d", total, sum)
			}
		})
	}
}
