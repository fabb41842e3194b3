package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded at a call site of the benchmark.
// Start and End are nanoseconds since the trace began; Parent is the id
// of the enclosing span (0 for the root); Request groups the spans of
// one request or batch (-1 when the span belongs to none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int64  `json:"request"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, request int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: request, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// recordCost times begin+end on a scratch tracer, so a traced run can
// state what share of its timed wall went into recording spans.
func recordCost() time.Duration {
	const n = 1 << 14
	t := newTracer()
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("cost", 0, -1))
	}
	return time.Since(start) / n
}

// selfTimes returns, per span name, the summed duration of its spans
// minus the part of each that its direct children cover (children may
// overlap each other: the covered part is the union of their intervals,
// clipped to the parent).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// checkSpans reports the first span that is unfinished, ends before it
// starts or names a parent that does not exist or does not precede it.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has no live parent %d", s.ID, s.Name, s.Parent)
		}
	}
	return nil
}

// traceFile is the on-disk form of a trace: the spans plus the per-name
// self times derived from them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	tf := traceFile{Workload: workload, Seed: seed, SelfMS: map[string]float64{}, Spans: spans}
	for name, d := range selfTimes(spans) {
		tf.SelfMS[name] = ms(d.Seconds())
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
