package main

import (
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/runtime"
	"btr/internal/sig"
	"btr/internal/sim"
)

// cpuTime is the CPU time, user plus system, this process and its
// reaped children have used so far.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue // both calls only fail on a bad argument
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// memoDelta is the verify and seal memo traffic of one repetition.
type memoDelta struct {
	VerifyHits, VerifyMisses, SealHits, SealMisses uint64
}

// coldMemos empties the process-wide signature memos and collects the
// heap, so a repetition starts as cold as the first one, and returns a
// function that reports the memo traffic since.
func coldMemos() func() memoDelta {
	sig.ResetMemos()
	goruntime.GC()
	vh, vm, sh, sm := sig.MemoStats()
	return func() memoDelta {
		vh2, vm2, sh2, sm2 := sig.MemoStats()
		return memoDelta{vh2 - vh, vm2 - vm, sh2 - sh, sm2 - sm}
	}
}

func (m memoDelta) verifyHitRatio() float64 {
	if m.VerifyHits+m.VerifyMisses == 0 {
		return 0
	}
	return float64(m.VerifyHits) / float64(m.VerifyHits+m.VerifyMisses)
}

// hooks wraps the configuration hooks of a deployment in spans. With a
// nil tracer the wrappers call straight through.
type hooks struct{ tr *tracer }

func (h hooks) compute() runtime.TaskFunc {
	return func(task flow.TaskID, period uint64, inputs []evidence.Record) []byte {
		i := h.tr.begin("Compute")
		defer h.tr.end(i)
		return evidence.HashCompute(task, period, inputs)
	}
}

func (h hooks) source() runtime.SourceFunc {
	return func(task flow.TaskID, period uint64) []byte {
		i := h.tr.begin("Source")
		defer h.tr.end(i)
		return evidence.SourceValue(task, period)
	}
}

func (h hooks) oracle(o func(flow.TaskID, uint64) []byte) func(flow.TaskID, uint64) []byte {
	return func(sink flow.TaskID, period uint64) []byte {
		i := h.tr.begin("Oracle")
		defer h.tr.end(i)
		return o(sink, period)
	}
}

func (h hooks) actuation(f runtime.ActuationFunc) runtime.ActuationFunc {
	return func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time) {
		i := h.tr.begin("OnActuation")
		defer h.tr.end(i)
		if f != nil {
			f(node, sink, period, value, at)
		}
	}
}

// episode follows one injected fault through detection and
// distribution, as seen from outside: the instants at which nodes
// convicted its victim.
type episode struct {
	At     sim.Time
	Victim network.NodeID
	// Convicted maps each node to the first instant it held the victim
	// convicted within the episode.
	Convicted map[network.NodeID]sim.Time
}

func newEpisode(at sim.Time, victim network.NodeID) *episode {
	return &episode{At: at, Victim: victim, Convicted: map[network.NodeID]sim.Time{}}
}

func (e *episode) observe(node network.NodeID, at sim.Time) {
	if node == e.Victim || at < e.At {
		return
	}
	if t, ok := e.Convicted[node]; !ok || at < t {
		e.Convicted[node] = at
	}
}

// firstConviction is the earliest conviction of the victim (sim.Never
// when no node convicted it).
func (e *episode) firstConviction() sim.Time {
	first := sim.Never
	for _, t := range e.Convicted {
		if t < first {
			first = t
		}
	}
	return first
}

// phases returns how long detection took (fault to the first
// conviction) and distribution took (first conviction to the last of
// the nodes in witnesses convicting). ok is false when no node
// convicted; distOK is false when some witness never did.
func (e *episode) phases(witnesses []network.NodeID) (detect, distribute sim.Time, ok, distOK bool) {
	first, last := e.firstConviction(), sim.Time(0)
	if first == sim.Never {
		return 0, 0, false, false
	}
	for _, w := range witnesses {
		t, seen := e.Convicted[w]
		if !seen {
			return first - e.At, 0, true, false
		}
		if t > last {
			last = t
		}
	}
	if last < first {
		last = first
	}
	return first - e.At, last - first, true, true
}

// switchPhase is the time from the first mode switch at or after the
// episode's first conviction to the end of the fault's bad output — the
// part of recovery after activation. ok is false without a conviction,
// a switch, or bad output ending after the switch.
func (e *episode) switchPhase(switches []sim.Time, recoverAt sim.Time) (sim.Time, bool) {
	first := e.firstConviction()
	if first == sim.Never {
		return 0, false
	}
	for _, s := range switches {
		if s >= first {
			if recoverAt > s {
				return recoverAt - s, true
			}
			return 0, false
		}
	}
	return 0, false
}

// nodeCounters sums the evidence counters (accepted, rejected, dropped
// by the rate limit) and mode switches of a deployment's n nodes.
func nodeCounters(rt *runtime.System, n int) (evidence [3]int, switches int) {
	for id := 0; id < n; id++ {
		node := rt.Node(network.NodeID(id))
		evidence[0] += node.EvidenceAccepted
		evidence[1] += node.EvidenceRejected
		evidence[2] += node.EvidenceDropped
		switches += node.Switches
	}
	return evidence, switches
}

// sinkIntervals returns each sink's bad-output intervals.
func sinkIntervals(perSink map[flow.TaskID]*metrics.Timeline, horizon sim.Time) [][]metrics.Interval {
	var out [][]metrics.Interval
	for _, sk := range sortedSinks(perSink) {
		out = append(out, perSink[sk].FalseIntervals(horizon))
	}
	return out
}

func sortedSinks(perSink map[flow.TaskID]*metrics.Timeline) []flow.TaskID {
	var out []flow.TaskID
	for sk := range perSink {
		out = append(out, sk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(t sim.Time) float64 { return t.Millis() }

func msDur(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
