package main

import "time"

// Span is one timed call from bench code into a layer's public function.
// Spans are recorded only by the harness, around the call; spans inside the
// program are a later change (ROADMAP item 4).
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Parent indexes the enclosing span in the trace, -1 at the top.
	Parent int `json:"parent"`
	// BusyNs and Calls are set on aggregate spans, which stand for many
	// short calls inside the parent (one workload.Next per request would
	// be millions of spans): BusyNs is the summed duration of the calls,
	// and it, not EndNs-StartNs, is what the span covers of its parent.
	BusyNs int64 `json:"busy_ns,omitempty"`
	Calls  int64 `json:"calls,omitempty"`
}

// covered is the part of its parent's interval the span accounts for.
func (s Span) covered() int64 {
	if s.Calls > 0 {
		return s.BusyNs
	}
	return s.EndNs - s.StartNs
}

// tracer records spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so untraced repetitions pay one nil check
// per call site. It is used from the single driver goroutine only.
type tracer struct {
	t0       time.Time
	workload string
	rep      int
	spans    []Span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, Span{
		Name: name, Workload: t.workload, Rep: t.rep,
		StartNs: time.Since(t.t0).Nanoseconds(), Parent: parent,
	})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// aggregate closes the books on many short calls made inside span parent:
// it records one child that covers busy nanoseconds over calls calls.
func (t *tracer) aggregate(name string, parent int, busy time.Duration, calls int64) {
	if t == nil || calls == 0 {
		return
	}
	p := t.spans[parent]
	t.spans = append(t.spans, Span{
		Name: name, Workload: t.workload, Rep: t.rep,
		StartNs: p.StartNs, EndNs: p.EndNs, Parent: parent,
		BusyNs: busy.Nanoseconds(), Calls: calls,
	})
}

// timed runs f inside a span and returns how long it took; with a nil
// tracer it only times.
func (t *tracer) timed(name string, f func()) time.Duration {
	id := t.begin(name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover: the time spent in that layer itself.
func selfTimes(spans []Span) map[string]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.covered()
		if s.Parent >= 0 {
			self[s.Parent] -= s.covered()
		}
	}
	byName := make(map[string]int64)
	for i, s := range spans {
		byName[s.Name] += self[i]
	}
	return byName
}
