package main

// live-flood: a wall-clock deployment on the in-process bus whose
// evidence channel carries an open-loop bogus flood, with a corrupt
// sink node on top.

import (
	goruntime "runtime"
	"time"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

const (
	floodPeriod  = 150 * sim.Millisecond
	floodMargin  = 50 * sim.Millisecond // watchdog margin for OS timer jitter
	floodHorizon = 100                  // periods: 15 s of wall time
	floodNodes   = 8
	floodF       = 2 // the flooder convicts itself, so the corrupt node is the second fault
	floodRate    = 64
	floodStart   = 1 // period the flood starts at
	corruptAt    = 4 // period the sink node turns corrupt at
	// floodSetups is how many deployments a run builds and closes unrun
	// besides the measured ones, so set-up time is a median of many.
	floodSetups = 16
	// floodNominal is how long one deployment runs: the horizon plus the
	// drain period.
	floodNominal = (floodHorizon + 1) * time.Duration(floodPeriod) * time.Microsecond
)

// floodRep is one deployment's measurements.
type floodRep struct {
	Setup, Run, RunCPU time.Duration
	Lags               []float64 // ms, one per actuation
	Tally              tally
	Recoveries         []metrics.Recovery // flood, then corrupt node
	Strategy           *plan.Strategy

	Memo      memoDelta
	Net       network.Stats
	Evidence  [3]int
	Switches  int
	Wall      uint64
	Overrun   time.Duration
	PlanBuild time.Duration

	switchTimes []sim.Time
	episodes    []*episode
	Detect      []float64
	Distribute  []float64
	Switch      []float64
	Trace       map[string]layerTime
	Spans       int
}

// floodDeploy builds one deployment with its attacks installed. The
// actuation hook records the lag of every actuation; with a tracer the
// other hooks are wrapped in spans, and evidence and switches are
// recorded for the phase metrics.
func floodDeploy(seed uint64, tr *tracer, r *floodRep) (*live.Deployment, error) {
	topo, err := live.BuildTopology("full-mesh", floodNodes)
	if err != nil {
		return nil, err
	}
	opts := plan.DefaultOptions(floodF, 100*floodPeriod)
	opts.WatchdogMargin = floodMargin
	workload := live.DefaultWorkload(floodPeriod)
	var d *live.Deployment
	cfg := live.Config{
		Seed: seed, Workload: workload, Topology: topo, PlanOpts: opts, Horizon: floodHorizon,
		OnActuation: func(_ network.NodeID, _ flow.TaskID, _ uint64, _ []byte, at sim.Time) {
			r.Lags = append(r.Lags, ms(d.Sched.WallElapsed()-at))
		},
	}
	if tr != nil {
		h := hooks{tr}
		cfg.Compute, cfg.Source = h.compute(), h.source()
		cfg.Oracle = live.Oracle(h.oracle(core.HashOracle(workload, evidence.SourceValue)))
		cfg.OnActuation = h.actuation(cfg.OnActuation)
		cfg.OnEvidence = func(node network.NodeID, ev evidence.Evidence, at sim.Time) {
			i := tr.begin("OnEvidence")
			defer tr.end(i)
			if !ev.Kind.Proof() {
				return
			}
			for _, e := range r.episodes {
				if e.Victim == ev.Accused {
					e.observe(node, at)
				}
			}
		}
		cfg.OnSwitch = func(node network.NodeID, from, to string, at sim.Time) {
			i := tr.begin("OnSwitch")
			defer tr.end(i)
			r.switchTimes = append(r.switchTimes, at)
		}
	}
	i := tr.begin("live.New")
	d, err = live.New(cfg)
	tr.end(i)
	if err != nil {
		return nil, err
	}
	victim := live.FirstSinkNode(d)
	flooder := network.NodeID(0)
	if flooder == victim {
		flooder = 1
	}
	adversary.FloodBogus(flooder, floodRate, floodStart*floodPeriod).Install(d)
	adversary.CorruptEverything(victim, corruptAt*floodPeriod).Install(d)
	r.episodes = []*episode{
		newEpisode(floodStart*floodPeriod, flooder),
		newEpisode(corruptAt*floodPeriod, victim),
	}
	r.Strategy = d.Strategy
	return d, nil
}

// floodSetup times building a deployment and closes it unrun.
func floodSetup(seed uint64) (time.Duration, error) {
	goruntime.GC()
	t0 := time.Now()
	d, err := floodDeploy(seed, nil, &floodRep{})
	if err != nil {
		return 0, err
	}
	setup := time.Since(t0)
	d.Close()
	return setup, nil
}

// floodOnce builds and runs one deployment.
func floodOnce(seed uint64, tr *tracer) (*floodRep, error) {
	stats := coldMemos()
	r := &floodRep{}
	t0 := time.Now()
	leave := tr.enter("setup")
	d, err := floodDeploy(seed, tr, r)
	leave()
	if err != nil {
		return nil, err
	}
	r.Setup = time.Since(t0)

	cpu0 := cpuTime()
	t1 := time.Now()
	leave = tr.enter("live.Deployment.Run")
	rep := d.Run()
	leave()
	r.Run, r.RunCPU = time.Since(t1), cpuTime()-cpu0
	r.Memo = stats()
	r.Overrun = r.Run - time.Duration(rep.Horizon+rep.Period)*time.Microsecond

	faults := []sim.Time{floodStart * floodPeriod, corruptAt * floodPeriod}
	r.Tally = judgeSinks(sinkIntervals(rep.PerSink, rep.Horizon), rep.Period, rep.Horizon,
		faults, rep.RNeeded+rep.Period)
	r.Recoveries = metrics.MatchRecoveries(faults, rep.BadIntervals())
	r.Net = rep.NetStats
	r.Wall = d.Sched.Executed
	r.Evidence, r.Switches = nodeCounters(d.Runtime, d.Cfg.Topology.N)
	if tr != nil {
		i := tr.begin("plan.Build")
		t0 := time.Now()
		_, _ = plan.Build(d.Cfg.Workload, d.Cfg.Topology, d.Cfg.PlanOpts) // the same build already succeeded in live.New
		r.PlanBuild = time.Since(t0)
		tr.end(i)
		var witnesses []network.NodeID
		for n := 0; n < d.Cfg.Topology.N; n++ {
			id := network.NodeID(n)
			if id != r.episodes[0].Victim && id != r.episodes[1].Victim {
				witnesses = append(witnesses, id)
			}
		}
		for i, e := range r.episodes {
			if det, dist, ok, distOK := e.phases(witnesses); ok {
				r.Detect = append(r.Detect, ms(det))
				if distOK {
					r.Distribute = append(r.Distribute, ms(dist))
				}
			}
			if sw, ok := e.switchPhase(r.switchTimes, r.Recoveries[i].RecoverAt); ok {
				r.Switch = append(r.Switch, ms(sw))
			}
		}
		r.Trace, r.Spans = tr.summary(), tr.count()
	}
	return r, nil
}

func totalDelivered(s network.Stats) uint64 {
	var t uint64
	for _, v := range s.MsgsDelivered {
		t += v
	}
	return t
}

// runLiveFlood runs as many deployments as fit the time, each on its
// own input; a traced run pairs untraced and traced deployments.
func runLiveFlood(p params) (*result, error) {
	speeds := []float64{hostSpeed()}
	var setups []float64
	for i := 0; i < floodSetups; i++ {
		s, err := floodSetup(p.Seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Seconds())
	}
	reps := p.schedule(p.repetitions(floodNominal))
	runs := make([]*floodRep, len(reps))
	speeds = append(speeds, hostSpeed())
	for i, rp := range reps {
		r, err := floodOnce(rp.Seed, rp.Tracer)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}

	res := newResult()
	var lags, tput, cpu, recMax []float64
	withinR, plain := 0, 0
	for i, r := range runs {
		res.Tally.add(r.Tally)
		if reps[i].Tracer != nil {
			continue
		}
		plain++
		setups = append(setups, r.Setup.Seconds())
		lags = append(lags, r.Lags...)
		tput = append(tput, float64(totalDelivered(r.Net))/r.Run.Seconds())
		cpu = append(cpu, msDur(r.RunCPU)/floodHorizon)
		worst := sim.Time(0)
		for _, rec := range r.Recoveries {
			if rec.Duration() > worst {
				worst = rec.Duration()
			}
		}
		recMax = append(recMax, ms(worst))
		if worst <= r.Strategy.RNeeded {
			withinR++
		}
	}
	res.EndToEnd["setup_s"] = metric{median(setups) * median(speeds), "s"}
	res.EndToEnd["throughput_per_s"] = metric{median(tput), "1/s"}
	res.EndToEnd["cpu_ms_per_period"] = metric{median(cpu), "ms"}
	res.Info["host_speed"] = metric{median(speeds), "x"}
	res.Info["setup_raw_s"] = metric{median(setups), "s"}
	lag := summarize(lags)
	res.Info["delivered_eps"] = metric{median(tput), "1/s"}
	res.Info["act_lag_p50_ms"] = metric{lag.P50, "ms"}
	res.Info["act_lag_tail_ms"] = metric{lag.Tail, "ms"}
	res.Info["act_lag_tail_percentile"] = metric{lag.TailP, "pct"}
	res.Info["act_lag_samples"] = metric{float64(lag.N), "count"}
	res.Info["recovery_max_ms"] = metric{median(recMax), "ms"}
	res.Info["recovery_bound_ms"] = metric{ms(runs[0].Strategy.RNeeded), "ms"}
	res.Info["within_r_runs"] = metric{float64(withinR), "count"}
	res.Info["deployments"] = metric{float64(plain), "count"}
	res.Info["silent_miss_ratio"] = metric{res.Tally.silentMissRatio(), "ratio"}
	res.check("live.within_r", withinR == plain, false)
	if p.Traced {
		var layers []map[string]metric
		for i, rp := range reps {
			if rp.Tracer != nil {
				layers = append(layers, floodLayers(runs[i-1], runs[i]))
			}
		}
		res.Layer = medianMetrics(layers)
	}
	return res, nil
}

// floodLayers is the per-layer metrics of a traced deployment; plain is
// the untraced deployment of the same input.
func floodLayers(plain, r *floodRep) map[string]metric {
	st := r.Strategy
	L := zeroLayers()
	L["sig.verify_misses"] = metric{float64(r.Memo.VerifyMisses), "count"}
	L["sig.seal_misses"] = metric{float64(r.Memo.SealMisses), "count"}
	L["sig.verify_hit_ratio"] = metric{r.Memo.verifyHitRatio(), "ratio"}
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
	L["live.wall_events"] = metric{float64(r.Wall), "count"}
	L["live.run_overrun_ms"] = metric{msDur(r.Overrun), "ms"}
	netLayers(L, r.Net)
	L["plan.build_ms"] = metric{msDur(r.PlanBuild), "ms"}
	L["trace.spans"] = metric{float64(r.Spans), "count"}
	L["trace.overhead_pct"] = metric{overheadPct(msDur(plain.RunCPU), msDur(r.RunCPU)), "%"}
	return L
}
