package core

import (
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/runtime"
	"btr/internal/sim"
)

func chainConfig(seed uint64) Config {
	return Config{
		Seed:     seed,
		Workload: flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(1, 500*sim.Millisecond),
		Horizon:  30,
	}
}

func TestFaultFreeReportClean(t *testing.T) {
	s, err := NewSystem(chainConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	if rep.WrongValues != 0 || rep.MissedPeriods != 0 {
		t.Errorf("fault-free: wrong=%d missed=%d", rep.WrongValues, rep.MissedPeriods)
	}
	if bad := rep.BadIntervals(); len(bad) != 0 {
		t.Errorf("bad intervals in fault-free run: %v", bad)
	}
	if rep.EvidenceTotal() != 0 {
		t.Errorf("evidence in fault-free run: %v", rep.EvidenceByKind)
	}
	if rep.Actuations == 0 {
		t.Error("no actuations observed")
	}
}

func TestSinkFaultRecoveryWithinR(t *testing.T) {
	s, err := NewSystem(chainConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt whichever sink replica actuates first: its command is the
	// one the plant acts on, so the fault is externally visible.
	base := s.Strategy.Plans[""]
	firstSink := flow.TaskID("c2#0")
	f0, f1 := base.Table.Finish["c2#0"], base.Table.Finish["c2#1"]
	// Ties in finish time resolve by node scheduling order (lower ID
	// schedules its period events first).
	if f1 < f0 || (f1 == f0 && base.Assign["c2#1"] < base.Assign["c2#0"]) {
		firstSink = "c2#1"
	}
	victim := base.Assign[firstSink]
	faultAt := 5 * s.Cfg.Workload.Period
	s.InjectAt(faultAt, func(rt *runtime.System) {
		rt.SetBehavior(victim, &runtime.Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c2" {
					rec.Value = []byte("wrong")
				}
				return rec, 0, true
			},
		})
	})
	rep := s.Run()
	if rep.WrongValues == 0 {
		t.Fatal("sink fault produced no wrong outputs — test ineffective")
	}
	recs := rep.Recoveries()
	if len(recs) != 1 {
		t.Fatalf("recoveries = %v", recs)
	}
	if recs[0].Duration() > rep.RNeeded {
		t.Errorf("measured recovery %v exceeds bound %v", recs[0].Duration(), rep.RNeeded)
	}
	if recs[0].Duration() == 0 {
		t.Error("recovery duration zero despite wrong outputs")
	}
}

func TestCrashNoOutputDisruption(t *testing.T) {
	s, err := NewSystem(chainConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	s.InjectAt(4*s.Cfg.Workload.Period, func(rt *runtime.System) { rt.Crash(victim) })
	rep := s.Run()
	// f+1 replication: a crash of one replica host never corrupts output.
	if rep.WrongValues != 0 {
		t.Errorf("crash caused %d wrong values", rep.WrongValues)
	}
	if rep.MissedPeriods != 0 {
		t.Errorf("crash caused %d missed periods", rep.MissedPeriods)
	}
	if got := rep.MaxRecovery(); got != 0 {
		t.Errorf("recovery %v, want 0 (outputs never wrong)", got)
	}
	// But the system must still have reconfigured.
	if len(rep.SwitchTimes) == 0 {
		t.Error("no mode switches after crash")
	}
}

func TestHashOracleMatchesRuntimeSemantics(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	oracle := HashOracle(g, evidence.SourceValue)
	// Manual recursion for the 3-chain.
	v0 := evidence.SourceValue("c0", 7)
	v1 := evidence.HashCompute("c1", 7, []evidence.Record{{Logical: "c0", Value: v0}})
	v2 := evidence.HashCompute("c2", 7, []evidence.Record{{Logical: "c1", Value: v1}})
	if string(oracle("c2", 7)) != string(v2) {
		t.Error("oracle disagrees with manual evaluation")
	}
	// Memoized second call identical.
	if string(oracle("c2", 7)) != string(v2) {
		t.Error("memoized oracle changed value")
	}
}

func TestReportSinksAtOrAbove(t *testing.T) {
	cfg := chainConfig(4)
	cfg.Workload = flow.Avionics(25 * sim.Millisecond)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run()
	a := rep.SinksAtOrAbove(flow.CritA)
	if len(a) != 1 || a[0] != "elevator" {
		t.Errorf("A sinks = %v", a)
	}
	all := rep.SinksAtOrAbove(flow.CritD)
	if len(all) != 4 {
		t.Errorf("all sinks = %v", all)
	}
}

func TestMergeIntervals(t *testing.T) {
	in := []metrics.Interval{
		{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 50},
		{Start: 50, End: 60}, {Start: 5, End: 8},
	}
	out := MergeIntervals(in)
	want := []metrics.Interval{
		{Start: 5, End: 8}, {Start: 10, End: 30}, {Start: 40, End: 60},
	}
	if len(out) != len(want) {
		t.Fatalf("merged = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merged = %v, want %v", out, want)
		}
	}
}

func TestMergeIntervalsEmpty(t *testing.T) {
	if MergeIntervals(nil) != nil {
		t.Error("merge of nothing should be nil")
	}
}

func TestDeterministicReports(t *testing.T) {
	run := func() (int, int, sim.Time) {
		s, err := NewSystem(chainConfig(42))
		if err != nil {
			t.Fatal(err)
		}
		victim := s.Strategy.Plans[""].Assign["c2#0"]
		s.InjectAt(5*s.Cfg.Workload.Period, func(rt *runtime.System) {
			rt.SetBehavior(victim, &runtime.Behavior{
				OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
					rec.Value = []byte("x")
					return rec, 0, true
				},
			})
		})
		rep := s.Run()
		return rep.WrongValues, rep.EvidenceTotal(), rep.MaxRecovery()
	}
	w1, e1, r1 := run()
	w2, e2, r2 := run()
	if w1 != w2 || e1 != e2 || r1 != r2 {
		t.Errorf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", w1, e1, r1, w2, e2, r2)
	}
}

// TestNewSystemBuildsNoVerifyTables pins that set-up stays flat: the
// per-signer fixed-base verification tables are built on each signer's
// first verify miss during the run, never by NewSystem.
func TestNewSystemBuildsNoVerifyTables(t *testing.T) {
	s, err := NewSystem(chainConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Registry.TablesBuilt(); n != 0 {
		t.Fatalf("NewSystem built %d verify tables, want 0", n)
	}
}
