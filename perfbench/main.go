// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the BTR system in one of its three execution modes,
// checks the outputs, and prints every metric by name with its unit;
// the last line of its output is a JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	perfbench --workload sim-arrivals --seed 1 --seconds 50 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"btr/internal/live"
	"btr/internal/sim"
)

// workloads maps each workload name to its runner. BENCHMARK.json lists
// all of them but those in ungated.
var workloads = map[string]func(params) (*result, error){
	"sim-arrivals": runSimArrivals,
	"live-flood":   runLiveFlood,
	"proc-clients": runProcClients,
}

// ungated are the workloads that run by hand only. live-flood misses a
// sink deadline now and then long after its flooder was convicted (a
// known defect of the live mode); the misses follow wall-clock timing,
// so two runs of the same seed do not agree on how many operations
// failed.
var ungated = map[string]bool{"live-flood": true}

// params are the benchmark arguments a runner receives.
type params struct {
	Seed   uint64
	Budget time.Duration // how long to measure
	Traced bool
}

// repetitions is how many repetitions of nominal length fit the
// measuring time, at least one. A traced run makes pairs, so its count
// is even and at least two.
func (p params) repetitions(nominal time.Duration) int {
	n := int(p.Budget / nominal)
	if p.Traced {
		n -= n % 2
		if n < 2 {
			n = 2
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// repetition is the input seed and tracer of one repetition of a run.
type repetition struct {
	Seed   uint64
	Tracer *tracer
}

// schedule plans a run's n repetitions. Untraced runs give every
// repetition its own input, drawn from the run's seed, so a run's
// figures are medians over several inputs. Traced runs make pairs: an
// untraced repetition, then a traced one on the same input, so the
// pair's difference is the tracing overhead.
func (p params) schedule(n int) []repetition {
	rng := sim.NewRNG(p.Seed)
	out := make([]repetition, n)
	for i := range out {
		if p.Traced && i%2 == 1 {
			out[i] = repetition{Seed: out[i-1].Seed, Tracer: newTracer()}
			continue
		}
		out[i].Seed = rng.Uint64()
	}
	return out
}

// medianMetrics is the per-metric median of several repetitions'
// metrics; a metric takes its unit from the first.
func medianMetrics(reps []map[string]metric) map[string]metric {
	out := map[string]metric{}
	for name, m := range reps[0] {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, r[name].Value)
		}
		out[name] = metric{median(xs), m.Unit}
	}
	return out
}

func main() {
	// Node processes of the multi-process workload are re-executions of
	// this binary; this call turns such a process into a node.
	live.MaybeRunNodeProc()

	workload := flag.String("workload", "", "workload to run: sim-arrivals, live-flood or proc-clients")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 50, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 records spans around each layer and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {sim-arrivals|live-flood|proc-clients}, --seconds ≥ 1 and --trace {0|1}\n")
		os.Exit(2)
	}
	res, err := run(params{Seed: *seed, Budget: time.Duration(*seconds) * time.Second, Traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, *workload, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run measured.
type result struct {
	Correct bool
	Tally   tally
	// EndToEnd and Layer hold the metrics the result line carries with
	// --trace 0 and --trace 1; Info holds the rest, printed only.
	EndToEnd map[string]metric
	Layer    map[string]metric
	Info     map[string]metric
	// Checks are the verdicts printed as "check <name> <ok|FAIL>"; a
	// failing check in Fatal marks the run incorrect.
	Checks []check
}

type check struct {
	Name  string
	OK    bool
	Fatal bool
}

func newResult() *result {
	return &result{
		Correct:  true,
		EndToEnd: map[string]metric{},
		Layer:    map[string]metric{},
		Info:     map[string]metric{},
	}
}

func (r *result) check(name string, ok, fatal bool) {
	r.Checks = append(r.Checks, check{name, ok, fatal})
	if fatal && !ok {
		r.Correct = false
	}
}

// endToEndUnits and layerUnits are the metrics every workload reports,
// with their units: every run must set each of them.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"throughput_per_s":  "1/s",
	"cpu_ms_per_period": "ms",
}

// print writes every metric as "metric <name> <value> <unit>" lines, the
// checks and the failure tally, then the result line.
func (r *result) print(w io.Writer, workload string, traced bool) error {
	want, carried := endToEndUnits, r.EndToEnd
	if traced {
		want, carried = layerUnits, r.Layer
	}
	for name, unit := range want {
		m, ok := carried[name]
		if !ok || m.Unit != unit {
			return fmt.Errorf("metric %s (%s) not measured", name, unit)
		}
	}
	fmt.Fprintf(w, "workload %s\n", workload)
	for _, group := range []map[string]metric{r.EndToEnd, r.Info, r.Layer} {
		for _, name := range sortedNames(group) {
			m := group[name]
			fmt.Fprintf(w, "metric %s %.6g %s\n", name, m.Value, m.Unit)
		}
	}
	t := r.Tally
	fmt.Fprintf(w, "tally judged=%d bad=%d tolerated=%d flagged=%d silent=%d client_ops=%d client_errors=%d silent_miss_ratio=%.6g\n",
		t.Judged, t.Bad, t.Tolerated, t.Flagged, t.Silent, t.ClientOps, t.ClientErrors, t.silentMissRatio())
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s\n", c.Name, verdict)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, t.attempted(), t.failed(), pick(carried, want)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func pick(from map[string]metric, names map[string]string) map[string]metric {
	out := map[string]metric{}
	for name := range names {
		out[name] = from[name]
	}
	return out
}

func sortedNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
