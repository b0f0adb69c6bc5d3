package main

import (
	"btr/internal/metrics"
	"btr/internal/sim"
)

// tally is the failure accounting of a run. A judged sink-period is bad
// when its output was missing, late or wrong at the deadline. A bad one
// is tolerated when it falls within the recovery bound of a fault the
// plan could absorb, flagged when it falls inside a signed over-budget
// window (simulated mode only: the system declared the guarantee
// suspended), and silent otherwise. Silent misses and client op errors
// are the failures; the attempts are the judged sink-periods plus every
// client op issued.
type tally struct {
	Judged    int
	Bad       int
	Tolerated int
	Flagged   int
	Silent    int

	ClientOps    int // completed
	ClientErrors int // gave up at their deadline
}

func (t tally) attempted() int { return t.Judged + t.ClientOps + t.ClientErrors }

func (t tally) failed() int { return t.Silent + t.ClientErrors }

// silentMissRatio is failed over attempted (0 with nothing attempted).
func (t tally) silentMissRatio() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}

func (t *tally) add(o tally) {
	t.Judged += o.Judged
	t.Bad += o.Bad
	t.Tolerated += o.Tolerated
	t.Flagged += o.Flagged
	t.Silent += o.Silent
	t.ClientOps += o.ClientOps
	t.ClientErrors += o.ClientErrors
}

// judgeSinks classifies the bad deadlines of per-sink correctness
// timelines. Each timeline interval is a run of bad deadlines one period
// apart, starting at the interval's start. A bad deadline is tolerated
// when it lies in [f, f+window] for some fault instant f, and silent
// otherwise. judged is the number of sink-periods the timelines cover.
func judgeSinks(bad [][]metrics.Interval, period sim.Time, horizon sim.Time, faults []sim.Time, window sim.Time) tally {
	t := tally{Judged: len(bad) * int(horizon/period)}
	for _, ivs := range bad {
		for _, iv := range ivs {
			for d := iv.Start; d < iv.End; d += period {
				t.Bad++
				if withinAny(d, faults, window) {
					t.Tolerated++
				} else {
					t.Silent++
				}
			}
		}
	}
	return t
}

func withinAny(d sim.Time, faults []sim.Time, window sim.Time) bool {
	for _, f := range faults {
		if d >= f && d <= f+window {
			return true
		}
	}
	return false
}
