package faultrate

import (
	"reflect"
	"slices"
	"testing"

	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

func testParams(seed uint64) Params {
	p := sim.Time(25 * sim.Millisecond)
	return Params{
		Lambda: 8, Heal: 8 * p, Forgive: 8 * p, Period: p,
		Start: 4 * p, Horizon: 200 * p, F: 1, Seed: seed,
	}
}

func testVictims(n int) []Victim {
	var out []Victim
	for i := 0; i < n; i++ {
		out = append(out, Victim{Node: network.NodeID(i), Logicals: []flow.TaskID{"t0", "t1"}})
	}
	return out
}

// The arrival process is a pure function of (Params, victims): the same
// seed must reproduce the identical schedule, and distinct seeds must
// not (the C8 byte-determinism pin rides on the former).
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(testParams(42), testVictims(5))
	b := Schedule(testParams(42), testVictims(5))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("schedule empty — test exercises nothing")
	}
	c := Schedule(testParams(43), testVictims(5))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Every arrival must land inside [Start, Horizon), heal exactly Heal
// later, use a catalog behavior, and target a hosted task.
func TestScheduleBounds(t *testing.T) {
	p := testParams(7)
	arr := Schedule(p, testVictims(4))
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	cat := map[string]bool{}
	for _, b := range Catalog() {
		cat[b] = true
	}
	for _, a := range arr {
		if a.At < p.Start || a.At >= p.Horizon {
			t.Errorf("arrival at %v outside [%v, %v)", a.At, p.Start, p.Horizon)
		}
		if a.HealAt != a.At+p.Heal {
			t.Errorf("heal at %v, want %v", a.HealAt, a.At+p.Heal)
		}
		if !cat[a.Behavior] {
			t.Errorf("behavior %q not in the catalog", a.Behavior)
		}
		if a.Logical != "t0" && a.Logical != "t1" {
			t.Errorf("logical %q not hosted by the victim", a.Logical)
		}
	}
}

// A single victim can never hold two overlapping episodes: consecutive
// arrivals must be separated by the full influence window
// (heal + forgive + 2 periods), and every arrival sees exactly one
// active episode — itself.
func TestScheduleSingleVictimNeverOverlaps(t *testing.T) {
	p := testParams(3)
	p.Lambda = 64 // saturate: most draws find the victim still convicted
	arr := Schedule(p, testVictims(1))
	if len(arr) < 2 {
		t.Fatalf("want >=2 arrivals, got %d", len(arr))
	}
	for i, a := range arr {
		if a.ActiveAtArrival != 1 {
			t.Errorf("arrival %d: active=%d, want 1", i, a.ActiveAtArrival)
		}
		if i > 0 {
			prevEnd := arr[i-1].HealAt + linger(p)
			if a.At < prevEnd {
				t.Errorf("arrival %d at %v inside predecessor's influence window (ends %v)", i, a.At, prevEnd)
			}
		}
	}
}

// ActiveAtArrival must equal the count of influence windows (own
// included) covering the arrival instant, recomputed independently from
// the schedule itself.
func TestScheduleActiveAccounting(t *testing.T) {
	p := testParams(11)
	arr := Schedule(p, testVictims(6))
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	peak := 0
	for i, a := range arr {
		want := 1
		for j := 0; j < i; j++ {
			if arr[j].HealAt+linger(p) > a.At {
				want++
			}
		}
		if a.ActiveAtArrival != want {
			t.Errorf("arrival %d: active=%d, recount=%d", i, a.ActiveAtArrival, want)
		}
		if a.ActiveAtArrival > peak {
			peak = a.ActiveAtArrival
		}
	}
	if peak <= p.F {
		t.Fatalf("peak active %d never exceeded f=%d — λ=8 schedule exercises no over-budget regime", peak, p.F)
	}
}

func TestInstallRejectsUnknownBehavior(t *testing.T) {
	err := Install(nil, []Arrival{{Behavior: "meltdown"}})
	if err == nil {
		t.Fatal("unknown behavior accepted")
	}
}

// syntheticReport builds a report with one sink whose output is bad over
// the given false intervals.
func syntheticReport(period, horizon, r sim.Time, bad []metrics.Interval, degraded []metrics.Interval) *core.Report {
	tl := metrics.NewTimeline(0, true)
	for _, iv := range bad {
		tl.Set(iv.Start, false)
		tl.Set(iv.End, true)
	}
	return &core.Report{
		Horizon: horizon, Period: period, RNeeded: r,
		PerSink:  map[flow.TaskID]*metrics.Timeline{"sink": tl},
		Degraded: degraded,
	}
}

func TestClassifyThreeWays(t *testing.T) {
	const p = 25 * sim.Millisecond
	// One within-budget arrival at 100ms (tolerated spans [100, 150+25]ms
	// with R=50ms), one over-budget degraded window [400, 500]ms
	// (lead=grace=25ms), and bad output in three separate spans: one per
	// class.
	arrivals := []Arrival{
		{At: 100 * sim.Millisecond, ActiveAtArrival: 1},
		{At: 400 * sim.Millisecond, ActiveAtArrival: 2},
	}
	bad := []metrics.Interval{
		{Start: 100 * sim.Millisecond, End: 150 * sim.Millisecond}, // tolerated (2 periods)
		{Start: 425 * sim.Millisecond, End: 475 * sim.Millisecond}, // detected (2 periods)
		{Start: 800 * sim.Millisecond, End: 825 * sim.Millisecond}, // untolerated (1 period)
	}
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Tolerated != 2 || out.Detected != 2 || out.Untolerated != 1 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 2/2/1", out.Tolerated, out.Detected, out.Untolerated)
	}
	if out.Periods != 40 {
		t.Fatalf("periods=%d, want 40", out.Periods)
	}
	if out.OK != 40-5 {
		t.Fatalf("ok=%d, want 35", out.OK)
	}
	if out.WorstWindow != 100*sim.Millisecond || len(out.Windows) != 1 {
		t.Fatalf("windows=%v worst=%v", out.Windows, out.WorstWindow)
	}
}

// Tolerated wins over detected: a bad period covered by both a
// within-budget arrival's recovery span and a degraded window counts
// against the classic guarantee, not the degradation ledger.
func TestClassifyToleratedPrecedence(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{At: 400 * sim.Millisecond, ActiveAtArrival: 1}}
	bad := []metrics.Interval{{Start: 425 * sim.Millisecond, End: 450 * sim.Millisecond}}
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Tolerated != 1 || out.Detected != 0 {
		t.Fatalf("tolerated=%d detected=%d, want 1/0", out.Tolerated, out.Detected)
	}
}

// An over-budget arrival's damage is not excused by the tolerated span
// of the classic guarantee — without a degraded window it is a silent
// miss.
func TestClassifyOverBudgetWithoutWindowIsUntolerated(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{At: 400 * sim.Millisecond, ActiveAtArrival: 2}}
	bad := []metrics.Interval{{Start: 425 * sim.Millisecond, End: 450 * sim.Millisecond}}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, nil)
	out := Classify(rep, arrivals, 1, p, p)
	if out.Untolerated != 1 || out.Tolerated != 0 || out.Detected != 0 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 0/0/1", out.Tolerated, out.Detected, out.Untolerated)
	}
}

// TestScheduleExtendedCatalog pins the C10 draw rules: with Behaviors =
// ExtendedCatalog() every arrival uses an extended behavior, sink-bound
// behaviors target hosted sinks only, delay episodes carry the hold, and
// skip-actuation never consumes fault budget (it cannot convict).
func TestScheduleExtendedCatalog(t *testing.T) {
	p := testParams(9)
	p.Behaviors = ExtendedCatalog()
	victims := testVictims(6)
	for i := range victims {
		victims[i].Sinks = []flow.TaskID{"t1"}
	}
	arr := Schedule(p, victims)
	if len(arr) == 0 {
		t.Fatal("schedule empty")
	}
	ext := map[string]bool{}
	for _, b := range ExtendedCatalog() {
		ext[b] = true
	}
	seen := map[string]bool{}
	for i, a := range arr {
		if !ext[a.Behavior] {
			t.Errorf("arrival %d: behavior %q not in the extended catalog", i, a.Behavior)
		}
		seen[a.Behavior] = true
		if sinkBound(a.Behavior) && a.Logical != "t1" {
			t.Errorf("arrival %d: sink-bound %s targets non-sink %q", i, a.Behavior, a.Logical)
		}
		if (a.Behavior == "delay") != (a.Hold > 0) {
			t.Errorf("arrival %d: %s carries hold %v", i, a.Behavior, a.Hold)
		}
		if a.Behavior == "skip-actuation" {
			// The episode itself must not enter the budget count.
			want := 0
			for j := 0; j < i; j++ {
				if Convicts(arr[j].Behavior) && arr[j].HealAt+linger(p) > a.At {
					want++
				}
			}
			if a.ActiveAtArrival != want {
				t.Errorf("arrival %d: skip-actuation active=%d, convicting recount=%d", i, a.ActiveAtArrival, want)
			}
		}
	}
	for _, b := range ExtendedCatalog() {
		if !seen[b] {
			t.Errorf("λ=8 schedule never drew %q — test exercises too little", b)
		}
	}
}

// A sink-bound draw against a victim pool with no hosted sinks must be
// dropped, not panic or target a non-sink.
func TestScheduleSinklessVictimsDropSinkBoundDraws(t *testing.T) {
	p := testParams(9)
	p.Behaviors = []string{"corrupt-sink", "skip-actuation"}
	arr := Schedule(p, testVictims(4)) // no Sinks set
	if len(arr) != 0 {
		t.Fatalf("sink-bound draws against sinkless victims survived: %+v", arr)
	}
}

// TestClassifyWindowAtPeriodBoundary pins the open/close arithmetic with
// zero lead and grace: a degraded window covers bad periods from exactly
// its open instant through exactly its close instant (inclusive — the
// close stamps the reconcile verdict, so the period starting then is
// still flagged), and nothing either side.
func TestClassifyWindowAtPeriodBoundary(t *testing.T) {
	const p = 25 * sim.Millisecond
	degraded := []metrics.Interval{{Start: 400 * sim.Millisecond, End: 450 * sim.Millisecond}}
	bad := []metrics.Interval{
		{Start: 375 * sim.Millisecond, End: 400 * sim.Millisecond}, // period before open
		{Start: 400 * sim.Millisecond, End: 425 * sim.Millisecond}, // period at open
		{Start: 450 * sim.Millisecond, End: 475 * sim.Millisecond}, // period at close
		{Start: 475 * sim.Millisecond, End: 500 * sim.Millisecond}, // period after close
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, nil, 1, 0, 0)
	if out.Detected != 2 || out.Untolerated != 2 || out.Tolerated != 0 {
		t.Fatalf("tolerated=%d detected=%d untolerated=%d, want 0/2/2",
			out.Tolerated, out.Detected, out.Untolerated)
	}
	// The lead/grace extension moves both boundaries by exactly one period.
	out = Classify(rep, nil, 1, p, p)
	if out.Detected != 4 || out.Untolerated != 0 {
		t.Fatalf("lead=grace=period: detected=%d untolerated=%d, want 4/0", out.Detected, out.Untolerated)
	}
}

// TestClassifyZeroDwellArrival: an episode healed the instant it arrived
// still opens the full tolerated span [At, At+R+P] — and the span's end
// is inclusive, closing exactly one period later than R.
func TestClassifyZeroDwellArrival(t *testing.T) {
	const p = 25 * sim.Millisecond
	arrivals := []Arrival{{At: 400 * sim.Millisecond, HealAt: 400 * sim.Millisecond, ActiveAtArrival: 1}}
	bad := []metrics.Interval{
		{Start: 400 * sim.Millisecond, End: 425 * sim.Millisecond}, // at the arrival instant
		{Start: 475 * sim.Millisecond, End: 500 * sim.Millisecond}, // at At+R+P exactly
		{Start: 500 * sim.Millisecond, End: 525 * sim.Millisecond}, // one period past the span
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, nil)
	out := Classify(rep, arrivals, 1, 0, 0)
	if out.Tolerated != 2 || out.Untolerated != 1 {
		t.Fatalf("tolerated=%d untolerated=%d, want 2/1", out.Tolerated, out.Untolerated)
	}
}

// TestClassifyOverlappingDegradedWindows: overlapping windows (two
// reporters degraded at once) merge for coverage — a bad period in the
// overlap counts once — while Windows and WorstWindow keep the raw
// per-window spans.
func TestClassifyOverlappingDegradedWindows(t *testing.T) {
	const p = 25 * sim.Millisecond
	degraded := []metrics.Interval{
		{Start: 400 * sim.Millisecond, End: 500 * sim.Millisecond},
		{Start: 450 * sim.Millisecond, End: 600 * sim.Millisecond},
	}
	bad := []metrics.Interval{
		{Start: 450 * sim.Millisecond, End: 500 * sim.Millisecond}, // inside the overlap
		{Start: 575 * sim.Millisecond, End: 600 * sim.Millisecond}, // inside the second window only
	}
	rep := syntheticReport(p, 1000*sim.Millisecond, 50*sim.Millisecond, bad, degraded)
	out := Classify(rep, nil, 1, 0, 0)
	if out.Detected != 3 || out.Untolerated != 0 {
		t.Fatalf("detected=%d untolerated=%d, want 3/0", out.Detected, out.Untolerated)
	}
	if len(out.Windows) != 2 {
		t.Fatalf("windows=%v, want the 2 raw spans", out.Windows)
	}
	if out.WorstWindow != 150*sim.Millisecond {
		t.Fatalf("worst=%v, want 150ms (the longer raw window, not the merged span)", out.WorstWindow)
	}
}

func TestCovered(t *testing.T) {
	ivs := []metrics.Interval{{Start: 10, End: 20}, {Start: 40, End: 50}}
	for _, c := range []struct {
		t    sim.Time
		want bool
	}{{5, false}, {10, true}, {20, true}, {25, false}, {45, true}, {55, false}} {
		if got := covered(ivs, c.t); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// A plan-cached deployment under a fault-arrival schedule must replay
// identically for a seed: the kernel executes the same number of events
// every run. Same-instant arrival watchdogs are the hazard — armed in
// map order they fired in a different order on each run.
func TestPlanCachedReplayDeterministic(t *testing.T) {
	const (
		period  = 25 * sim.Millisecond
		horizon = 200
		// seed draws a schedule that, with the watchdogs armed in map
		// order, replayed to one of three event counts at random.
		seed = 0x437057a4eb7c3a13
	)
	run := func() uint64 {
		s, err := core.NewSystem(core.Config{
			Seed:         seed,
			Workload:     flow.Chain(3, period, sim.Millisecond, 64, flow.CritA),
			Topology:     network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
			PlanOpts:     plan.DefaultOptions(2, 500*sim.Millisecond),
			PlanCache:    cache.New(),
			Horizon:      horizon,
			ForgiveAfter: 8 * period,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every task-hosting node, with the logical tasks it hosts.
		var victims []Victim
		index := map[network.NodeID]int{}
		base := s.Strategy.Plans[""]
		for _, id := range base.Aug.TaskIDs() {
			n := base.Assign[id]
			i, ok := index[n]
			if !ok {
				i = len(victims)
				index[n] = i
				victims = append(victims, Victim{Node: n})
			}
			logical, _ := plan.SplitReplica(id)
			if !slices.Contains(victims[i].Logicals, logical) {
				victims[i].Logicals = append(victims[i].Logicals, logical)
			}
		}
		arrivals := Schedule(Params{
			Lambda: 2, Heal: 8 * period, Forgive: 8 * period, Period: period,
			Start: 4 * period, Horizon: horizon * period, F: 2, Seed: seed,
		}, victims)
		if len(arrivals) == 0 {
			t.Fatal("no fault arrivals: test exercises nothing")
		}
		if err := Install(s, arrivals); err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s.Kernel.Executed
	}
	want := run()
	for i := 1; i < 6; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d executed %d kernel events, run 0 executed %d", i, got, want)
		}
	}
}
