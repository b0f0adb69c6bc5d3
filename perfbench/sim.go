package main

// sim-arrivals: the discrete-event kernel under a Poisson fault-arrival
// process. Virtual time repeats exactly for a seed, so every repetition
// of a run must reproduce the same recoveries and kernel event count.

import (
	"fmt"
	"hash/fnv"
	"os"
	goruntime "runtime"
	"time"

	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/faultrate"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

const (
	simPeriod  = 25 * sim.Millisecond
	simHorizon = 1200 // periods: 30 s of virtual time
	simLambda  = 2.0  // fault arrivals per virtual second
	simNodes   = 8
	simF       = 2
	// simHeal and simForgive follow the fault-rate regime's timing: an
	// episode stays active for 8 periods and its conviction expires 8
	// periods after detection.
	simHeal    = 8 * simPeriod
	simForgive = 8 * simPeriod
	// simProbe is how often a traced repetition reads every node's fault
	// set to time detection and distribution.
	simProbe = 100 * sim.Microsecond
	// simSetups is how many deployments a run builds and drops unrun
	// besides the measured ones, so set-up time is a median of many.
	simSetups = 16
	// simNominal is how long one repetition takes on a 2-core x86-64
	// host; it sets how many repetitions a run makes.
	simNominal = 4300 * time.Millisecond
)

// simRep is one repetition's measurements.
type simRep struct {
	Setup, Run, RunCPU time.Duration
	Events             uint64 // kernel events, probe events excluded
	Recoveries         []sim.Time
	Digest             uint64
	Tally              tally
	Arrivals           int
	PeakActive         int
	Outcome            faultrate.Outcome

	Memo      memoDelta
	Net       network.Stats
	Plan      cache.Stats
	Evidence  [3]int // accepted, rejected, dropped
	Switches  int
	Strategy  *plan.Strategy
	PlanBuild time.Duration

	Detect, Distribute, Switch []float64 // ms, one per episode observed
	Trace                      map[string]layerTime
	Spans                      int
}

func simWorkload() (*flow.Graph, *network.Topology, plan.Options) {
	return flow.Chain(3, simPeriod, sim.Millisecond, 64, flow.CritA),
		network.FullMesh(simNodes, 20_000_000, 50*sim.Microsecond),
		plan.DefaultOptions(simF, 500*sim.Millisecond)
}

// simVictims lists every task-hosting node of the base plan with the
// logical tasks it hosts, in plan order: the pool faults arrive on.
func simVictims(s *plan.Strategy) []faultrate.Victim {
	base := s.Plans[""]
	var out []faultrate.Victim
	index := map[network.NodeID]int{}
	for _, id := range base.Aug.TaskIDs() {
		n := base.Assign[id]
		logical, _ := plan.SplitReplica(id)
		i, ok := index[n]
		if !ok {
			i = len(out)
			index[n] = i
			out = append(out, faultrate.Victim{Node: n})
		}
		dup := false
		for _, l := range out[i].Logicals {
			dup = dup || l == logical
		}
		if !dup {
			out[i].Logicals = append(out[i].Logicals, logical)
		}
	}
	return out
}

// simDeploy builds a deployment with its fault arrivals installed. A
// non-nil tracer wraps the hooks in spans.
func simDeploy(seed uint64, tr *tracer) (*core.System, []faultrate.Arrival, error) {
	g, topo, opts := simWorkload()
	cfg := core.Config{
		Seed: seed, Workload: g, Topology: topo, PlanOpts: opts,
		PlanCache: cache.New(), Horizon: simHorizon, ForgiveAfter: simForgive,
	}
	if tr != nil {
		h := hooks{tr}
		cfg.Compute, cfg.Source = h.compute(), h.source()
		cfg.Oracle = core.Oracle(h.oracle(core.HashOracle(g, evidence.SourceValue)))
		cfg.OnActuation = h.actuation(nil)
	}
	i := tr.begin("core.NewSystem")
	s, err := core.NewSystem(cfg)
	tr.end(i)
	if err != nil {
		return nil, nil, err
	}
	arrivals := faultrate.Schedule(faultrate.Params{
		Lambda: simLambda, Heal: simHeal, Forgive: simForgive, Period: simPeriod,
		Start: 4 * simPeriod, Horizon: simHorizon * simPeriod, F: simF, Seed: seed,
	}, simVictims(s.Strategy))
	if err := faultrate.Install(s, arrivals); err != nil {
		return nil, nil, err
	}
	return s, arrivals, nil
}

// simOnce builds and runs one deployment. A non-nil tracer wraps the
// hooks in spans and probes the nodes' fault sets.
func simOnce(seed uint64, tr *tracer) (*simRep, error) {
	stats := coldMemos()
	t0 := time.Now()
	leave := tr.enter("setup")
	s, arrivals, err := simDeploy(seed, tr)
	leave()
	if err != nil {
		return nil, err
	}
	r := &simRep{Setup: time.Since(t0), Arrivals: len(arrivals), Strategy: s.Strategy}

	var pr *probe
	if tr != nil {
		pr = probeConvictions(s, arrivals)
		r.PlanBuild = timePlanning(tr, s.Cfg.Workload, s.Cfg.Topology, s.Cfg.PlanOpts)
	}

	cpu0 := cpuTime()
	t1 := time.Now()
	leave = tr.enter("core.System.Run")
	rep := s.Run()
	leave()
	r.Run, r.RunCPU = time.Since(t1), cpuTime()-cpu0
	r.Memo = stats()

	r.Events = s.Kernel.Executed
	if pr != nil {
		r.Events -= pr.events
	}
	for _, rec := range rep.Recoveries() {
		r.Recoveries = append(r.Recoveries, rec.Duration())
	}
	slack := rep.RNeeded + simPeriod
	r.Outcome = faultrate.Classify(rep, arrivals, simF, slack, slack)
	o := r.Outcome
	r.Tally = tally{
		Judged: o.Periods, Bad: o.Tolerated + o.Detected + o.Untolerated,
		Tolerated: o.Tolerated, Flagged: o.Detected, Silent: o.Untolerated,
	}
	for _, a := range arrivals {
		if a.ActiveAtArrival > r.PeakActive {
			r.PeakActive = a.ActiveAtArrival
		}
	}
	r.Net = rep.NetStats
	r.Plan = s.PlanEngine.Stats()
	n := s.Cfg.Topology.N
	r.Evidence, r.Switches = nodeCounters(s.Runtime, n)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%v|%d|%d|%d|%d", r.Events, r.Recoveries, o.Periods, o.Tolerated, o.Detected, o.Untolerated)
	r.Digest = h.Sum64()

	if tr != nil {
		// Install records one fault instant per arrival, so recoveries and
		// episodes line up index by index.
		recs := rep.Recoveries()
		if len(recs) != len(pr.episodes) {
			return nil, fmt.Errorf("%d recoveries for %d fault arrivals", len(recs), len(pr.episodes))
		}
		for i, e := range pr.episodes {
			if d, dist, ok, distOK := e.phases(simWitnesses(arrivals, i, n)); ok {
				r.Detect = append(r.Detect, ms(d))
				if distOK {
					r.Distribute = append(r.Distribute, ms(dist))
				}
			}
			if sw, ok := e.switchPhase(rep.SwitchTimes, recs[i].RecoverAt); ok {
				r.Switch = append(r.Switch, ms(sw))
			}
		}
		r.Trace, r.Spans = tr.summary(), tr.count()
	}
	return r, nil
}

// timePlanning times one strategy build through a fresh plan engine with
// the deployment's inputs: the planning layer's cost on its own.
func timePlanning(tr *tracer, g *flow.Graph, topo *network.Topology, opts plan.Options) time.Duration {
	t0 := time.Now()
	i := tr.begin("plan.cache.Engine.BuildStrategy")
	_, _ = cache.NewEngine(g, topo, opts, cache.New()).BuildStrategy() // the same build already succeeded in NewSystem
	tr.end(i)
	return time.Since(t0)
}

// probe is the conviction probe of a traced repetition.
type probe struct {
	episodes []*episode // one per arrival
	events   uint64     // kernel events the probe itself added
}

// probeConvictions schedules a kernel event every simProbe that records,
// for every episode whose influence window is open, which nodes hold its
// victim convicted. The probe only reads node state, so the run's
// behaviour is unchanged; its events are subtracted from the kernel's
// count.
func probeConvictions(s *core.System, arrivals []faultrate.Arrival) *probe {
	pr := &probe{episodes: make([]*episode, len(arrivals))}
	for i, a := range arrivals {
		pr.episodes[i] = newEpisode(a.At, a.Node)
	}
	n := s.Cfg.Topology.N
	var tick func()
	next := sim.Time(0)
	tick = func() {
		pr.events++
		now := s.Kernel.Now()
		for i, a := range arrivals {
			if a.At > now || now >= influenceEnd(a) {
				continue
			}
			for id := 0; id < n; id++ {
				if s.Runtime.Node(network.NodeID(id)).FaultSet().Contains(a.Node) {
					pr.episodes[i].observe(network.NodeID(id), now)
				}
			}
		}
		next += simProbe
		if next < simHorizon*simPeriod {
			s.Kernel.At(next, tick)
		}
	}
	s.Kernel.At(next, tick)
	return pr
}

// influenceEnd is when an episode's conviction has surely expired.
func influenceEnd(a faultrate.Arrival) sim.Time { return a.HealAt + simForgive + 2*simPeriod }

// simWitnesses are the nodes that must convict episode i's victim: all
// but the victims of episodes whose influence overlaps it.
func simWitnesses(arrivals []faultrate.Arrival, i, n int) []network.NodeID {
	a := arrivals[i]
	faulty := map[network.NodeID]bool{}
	for _, b := range arrivals {
		if b.At < influenceEnd(a) && influenceEnd(b) > a.At {
			faulty[b.Node] = true
		}
	}
	var out []network.NodeID
	for id := 0; id < n; id++ {
		if !faulty[network.NodeID(id)] {
			out = append(out, network.NodeID(id))
		}
	}
	return out
}

// runSimArrivals runs one repetition per input that fits the time,
// then replays the first input, which must reproduce its recoveries and
// kernel event count exactly. In a traced run every input is replayed
// traced instead, which also checks that tracing leaves the behaviour
// unchanged.
func runSimArrivals(p params) (*result, error) {
	var setup []float64
	for i := 0; i < simSetups; i++ {
		goruntime.GC()
		t0 := time.Now()
		if _, _, err := simDeploy(p.Seed, nil); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	reps := p.schedule(p.repetitions(simNominal))
	if !p.Traced {
		replay := repetition{Seed: reps[0].Seed}
		if len(reps) > 1 {
			reps[len(reps)-1] = replay
		} else {
			reps = append(reps, replay)
		}
	}
	runs := make([]*simRep, len(reps))
	speeds := []float64{hostSpeed()}
	for i, rp := range reps {
		r, err := simOnce(rp.Seed, rp.Tracer)
		if err != nil {
			return nil, err
		}
		runs[i] = r
		speeds = append(speeds, hostSpeed())
	}

	res := newResult()
	firsts := map[uint64]*simRep{}
	same := true
	var plain []*simRep // the first untraced run of each input
	var speed []float64 // host speed around each of plain
	for i, rp := range reps {
		first, seen := firsts[rp.Seed]
		if !seen {
			firsts[rp.Seed] = runs[i]
			plain = append(plain, runs[i])
			speed = append(speed, speedAround(speeds, i))
			continue
		}
		if first.Digest != runs[i].Digest {
			same = false
			fmt.Fprintf(os.Stderr, "sim-arrivals: input %x replayed with %d kernel events and recoveries %v, first run %d and %v\n",
				rp.Seed, runs[i].Events, runs[i].Recoveries, first.Events, first.Recoveries)
		}
	}
	res.check("sim.deterministic_replay", same, true)

	var simSpeed, tput, cpu, rawTput, rawCPU, recoveries []float64
	visible := 0
	for i, r := range plain {
		res.Tally.add(r.Tally)
		setup = append(setup, r.Setup.Seconds())
		simSpeed = append(simSpeed, (simHorizon*simPeriod).Seconds()/r.Run.Seconds())
		rawTput = append(rawTput, simHorizon/r.Run.Seconds())
		rawCPU = append(rawCPU, msDur(r.RunCPU)/simHorizon)
		tput = append(tput, simHorizon/r.Run.Seconds()/speed[i])
		cpu = append(cpu, msDur(r.RunCPU)/simHorizon*speed[i])
		for _, d := range r.Recoveries {
			recoveries = append(recoveries, ms(d))
			if d > 0 {
				visible++
			}
		}
	}
	res.EndToEnd["setup_s"] = metric{median(setup) * median(speeds), "s"}
	res.EndToEnd["throughput_per_s"] = metric{median(tput), "1/s"}
	res.EndToEnd["cpu_ms_per_period"] = metric{median(cpu), "ms"}
	res.Info["host_speed"] = metric{median(speeds), "x"}
	res.Info["setup_raw_s"] = metric{median(setup), "s"}
	res.Info["throughput_raw_per_s"] = metric{median(rawTput), "1/s"}
	res.Info["cpu_raw_ms_per_period"] = metric{median(rawCPU), "ms"}
	res.Info["sim_speed"] = metric{median(simSpeed), "x"}
	res.Info["inputs"] = metric{float64(len(plain)), "count"}
	rec := summarize(recoveries)
	res.Info["recovery_p50_ms"] = metric{rec.P50, "ms"}
	res.Info["recovery_max_ms"] = metric{rec.Max, "ms"}
	res.Info["recovery_faults"] = metric{float64(rec.N), "count"}
	res.Info["recovery_visible_faults"] = metric{float64(visible), "count"}
	res.Info["recovery_bound_ms"] = metric{ms(plain[0].Strategy.RNeeded), "ms"}
	res.Info["silent_miss_ratio"] = metric{res.Tally.silentMissRatio(), "ratio"}
	res.Info["digest_low32"] = metric{float64(plain[0].Digest & 0xffffffff), "id"}

	if p.Traced {
		var layers []map[string]metric
		for i, rp := range reps {
			if rp.Tracer != nil {
				layers = append(layers, simLayers(runs[i-1], runs[i]))
			}
		}
		res.Layer = medianMetrics(layers)
	}
	return res, nil
}

// simLayers is the per-layer metrics of a traced repetition; plain is
// the untraced repetition of the same input.
func simLayers(plain, r *simRep) map[string]metric {
	st := r.Strategy
	L := zeroLayers()
	L["sig.verify_misses"] = metric{float64(r.Memo.VerifyMisses), "count"}
	L["sig.seal_misses"] = metric{float64(r.Memo.SealMisses), "count"}
	L["sig.verify_hit_ratio"] = metric{r.Memo.verifyHitRatio(), "ratio"}
	L["sim.events"] = metric{float64(r.Events), "count"}
	L["sim.events_per_s"] = metric{float64(plain.Events) / plain.Run.Seconds(), "1/s"}
	L["runtime.detect_ms"] = metric{summarize(r.Detect).P50, "ms"}
	L["runtime.detect_bound_ms"] = metric{ms(st.DetectBound), "ms"}
	L["runtime.distribute_ms"] = metric{summarize(r.Distribute).P50, "ms"}
	L["runtime.distribute_bound_ms"] = metric{ms(st.DistributeBound), "ms"}
	L["runtime.switch_ms"] = metric{summarize(r.Switch).P50, "ms"}
	L["runtime.switch_bound_ms"] = metric{ms(st.SwitchBound), "ms"}
	L["runtime.switches"] = metric{float64(r.Switches), "count"}
	L["runtime.compute_self_ms"] = metric{msDur(r.Trace["Compute"].Self), "ms"}
	L["runtime.evidence_accepted"] = metric{float64(r.Evidence[0]), "count"}
	L["runtime.evidence_rejected"] = metric{float64(r.Evidence[1]), "count"}
	L["runtime.evidence_dropped"] = metric{float64(r.Evidence[2]), "count"}
	netLayers(L, r.Net)
	L["plan.build_ms"] = metric{msDur(r.PlanBuild), "ms"}
	L["plan.cache_exact_hits"] = metric{float64(r.Plan.ExactHits), "count"}
	L["plan.cache_symmetry_hits"] = metric{float64(r.Plan.SymmetryHits), "count"}
	L["plan.cache_misses"] = metric{float64(r.Plan.Misses), "count"}
	L["faultrate.arrivals"] = metric{float64(r.Arrivals), "count"}
	L["faultrate.peak_active"] = metric{float64(r.PeakActive), "count"}
	L["faultrate.tolerated"] = metric{float64(r.Outcome.Tolerated), "count"}
	L["faultrate.detected"] = metric{float64(r.Outcome.Detected), "count"}
	L["faultrate.untolerated"] = metric{float64(r.Outcome.Untolerated), "count"}
	L["trace.spans"] = metric{float64(r.Spans), "count"}
	L["trace.overhead_pct"] = metric{overheadPct(plain.Run.Seconds(), r.Run.Seconds()), "%"}
	return L
}

// zeroLayers is every per-layer metric at 0: the value of a layer a
// workload does not exercise.
func zeroLayers() map[string]metric {
	L := map[string]metric{}
	for name, unit := range layerUnits {
		L[name] = metric{0, unit}
	}
	return L
}

// overheadPct is how much more the traced measurement took, in percent
// of the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced - untraced) / untraced
}

// netLayers reports the transport's per-class counters.
func netLayers(L map[string]metric, s network.Stats) {
	fg, ev := network.ClassForeground, network.ClassEvidence
	L["network.sent.fg"] = metric{float64(s.MsgsSent[fg]), "count"}
	L["network.sent.ev"] = metric{float64(s.MsgsSent[ev]), "count"}
	L["network.delivered.fg"] = metric{float64(s.MsgsDelivered[fg]), "count"}
	L["network.delivered.ev"] = metric{float64(s.MsgsDelivered[ev]), "count"}
	L["network.shed"] = metric{float64(s.TotalShed()), "count"}
	L["network.bytes.ev"] = metric{float64(s.BytesSent[ev]), "bytes"}
}
