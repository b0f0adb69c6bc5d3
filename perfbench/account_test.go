package main

import (
	"encoding/json"
	"os"
	"testing"

	"btr/internal/metrics"
	"btr/internal/sim"
)

func TestJudgeSinksSplitsToleratedFromSilent(t *testing.T) {
	const period = 10
	bad := [][]metrics.Interval{
		// Sink a: deadlines 20 and 30 are bad, inside [15, 35] of the
		// fault at 15; deadline 80 is bad long after it.
		{{Start: 20, End: 40}, {Start: 80, End: 90}},
		// Sink b: deadline 40 is just past the window.
		{{Start: 40, End: 50}},
	}
	got := judgeSinks(bad, period, 100, []sim.Time{15}, 20)
	want := tally{Judged: 20, Bad: 4, Tolerated: 2, Silent: 2}
	if got != want {
		t.Fatalf("judgeSinks = %+v, want %+v", got, want)
	}
	if r := got.silentMissRatio(); r != 2.0/20 {
		t.Fatalf("silent miss ratio = %v, want 0.1", r)
	}
}

func TestJudgeSinksWithoutFaultsIsAllSilent(t *testing.T) {
	got := judgeSinks([][]metrics.Interval{{{Start: 0, End: 30}}}, 10, 50, nil, 100)
	if got.Bad != 3 || got.Silent != 3 || got.Tolerated != 0 || got.Judged != 5 {
		t.Fatalf("judgeSinks = %+v", got)
	}
}

func TestClientErrorsCountAsFailedAttempts(t *testing.T) {
	t1 := tally{Judged: 16, Bad: 2, Tolerated: 1, Silent: 1, ClientOps: 80, ClientErrors: 3}
	if t1.attempted() != 99 || t1.failed() != 4 {
		t.Fatalf("attempted %d failed %d, want 99 and 4", t1.attempted(), t1.failed())
	}
	if r := t1.silentMissRatio(); r != 4.0/99 {
		t.Fatalf("ratio = %v", r)
	}
	var sum tally
	sum.add(t1)
	sum.add(tally{Judged: 4, Flagged: 1, Bad: 1})
	if sum.attempted() != 103 || sum.failed() != 4 || sum.Flagged != 1 {
		t.Fatalf("sum = %+v", sum)
	}
	if r := (tally{}).silentMissRatio(); r != 0 {
		t.Fatalf("empty ratio = %v", r)
	}
}

// TestBenchmarkFileListsTheReportedMetrics keeps BENCHMARK.json and the
// metrics a run reports in step.
func TestBenchmarkFileListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s (%s) is not reported with that unit", m.Name, m.Unit)
			}
		}
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil || ungated[w.Name] {
			t.Errorf("workload %s has no gated runner", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && !ungated[name] {
			t.Errorf("workload %s is neither in BENCHMARK.json nor ungated", name)
		}
	}
}
