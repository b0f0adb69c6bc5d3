package main

import (
	"sync"
	"time"
)

// layerUnits are the per-layer metrics every workload reports with
// --trace 1. A layer a workload does not exercise reports 0.
var layerUnits = map[string]string{
	"sig.verify_misses":           "count",
	"sig.seal_misses":             "count",
	"sig.verify_hit_ratio":        "ratio",
	"sim.events":                  "count",
	"sim.events_per_s":            "1/s",
	"runtime.detect_ms":           "ms",
	"runtime.detect_bound_ms":     "ms",
	"runtime.distribute_ms":       "ms",
	"runtime.distribute_bound_ms": "ms",
	"runtime.switch_ms":           "ms",
	"runtime.switch_bound_ms":     "ms",
	"runtime.switches":            "count",
	"runtime.compute_self_ms":     "ms",
	"runtime.evidence_accepted":   "count",
	"runtime.evidence_rejected":   "count",
	"runtime.evidence_dropped":    "count",
	"live.wall_events":            "count",
	"live.run_overrun_ms":         "ms",
	"network.sent.fg":             "count",
	"network.sent.ev":             "count",
	"network.delivered.fg":        "count",
	"network.delivered.ev":        "count",
	"network.shed":                "count",
	"network.bytes.ev":            "bytes",
	"network.tcp.dials":           "count",
	"network.tcp.reconnects":      "count",
	"network.tcp.drops":           "count",
	"client.retries":              "count",
	"client.stale_retries":        "count",
	"client.repairs":              "count",
	"plan.build_ms":               "ms",
	"plan.cache_exact_hits":       "count",
	"plan.cache_symmetry_hits":    "count",
	"plan.cache_misses":           "count",
	"faultrate.arrivals":          "count",
	"faultrate.peak_active":       "count",
	"faultrate.tolerated":         "count",
	"faultrate.detected":          "count",
	"faultrate.untolerated":       "count",
	"trace.spans":                 "count",
	"trace.overhead_pct":          "%",
}

// span is one timed call at a layer boundary.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	Parent     int           // index of the enclosing span, -1 for a root
}

// tracer keeps spans in memory. A nil *tracer records nothing, so an
// untraced run pays only the nil checks. Hooks of the live modes run on
// the scheduler's executor goroutine while the run span is open on the
// caller's, hence the lock.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	cur    int // span new spans nest under, -1 for none
}

func newTracer() *tracer { return &tracer{origin: time.Now(), cur: -1} }

// begin opens a span under the current one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: t.cur})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// enter opens span name and makes it the parent of spans opened until
// the returned function closes it.
func (t *tracer) enter(name string) func() {
	if t == nil {
		return func() {}
	}
	i := t.begin(name)
	t.mu.Lock()
	prev := t.cur
	t.cur = i
	t.mu.Unlock()
	return func() {
		t.end(i)
		t.mu.Lock()
		t.cur = prev
		t.mu.Unlock()
	}
}

// layerTime is the time spent in the spans of one name.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time its child spans cover
}

// summary aggregates the spans by name. Children of one span never
// overlap (hooks run on a single executor), so a span's self time is its
// duration minus the sum of its children's.
func (t *tracer) summary() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		if self := d - child[i]; self > 0 {
			lt.Self += self
		}
		out[s.Name] = lt
	}
	return out
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
