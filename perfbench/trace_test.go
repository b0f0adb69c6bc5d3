package main

import (
	"sync"
	"testing"
)

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "hook", Start: 10, End: 30, Parent: 0},
		{Name: "hook", Start: 40, End: 50, Parent: 0},
	}}
	sum := tr.summary()
	if run := sum["run"]; run.Count != 1 || run.Total != 100 || run.Self != 70 {
		t.Errorf("run = %+v, want total 100, self 70", run)
	}
	if hook := sum["hook"]; hook.Count != 2 || hook.Total != 30 || hook.Self != 30 {
		t.Errorf("hook = %+v, want 2 spans, total and self 30", hook)
	}
}

// TestTracerConcurrentHooks records hook spans from several goroutines
// while a run span is open on another, as the live modes do; run it
// with -race.
func TestTracerConcurrentHooks(t *testing.T) {
	tr := newTracer()
	leave := tr.enter("run")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin("hook"))
			}
		}()
	}
	wg.Wait()
	leave()
	sum := tr.summary()
	if sum["hook"].Count != 400 || sum["run"].Count != 1 || tr.count() != 401 {
		t.Fatalf("summary = %+v, %d spans", sum, tr.count())
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("hook"))
	tr.enter("run")()
	if tr.summary() != nil || tr.count() != 0 {
		t.Fatal("a nil tracer recorded spans")
	}
}
