package main

// proc-clients: one OS process per node over real TCP sockets, a node
// killed and restarted mid-run, and closed-loop client sessions doing
// quorum reads and writes throughout.

import (
	"bytes"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"btr/internal/live"
	"btr/internal/sim"
)

const (
	procPeriod  = 500 * sim.Millisecond
	procMargin  = 200 * sim.Millisecond
	procHorizon = 16
	procNodes   = 4
	procF       = 1
	procFaultAt = 3
	procHeal    = 3
	// procClients is the number of closed-loop client sessions; more
	// than the host's two cores would measure the client's own CPU
	// contention rather than the cluster.
	procClients = 2
	// procNominal is how long one orchestration takes: the horizon plus
	// spawning, barriers and drain on a 2-core x86-64 host.
	procNominal = procHorizon*time.Duration(procPeriod)*time.Microsecond + 700*time.Millisecond
)

// releaseLog timestamps the orchestrator's progress lines: the moment
// the cluster is released is the end of set-up.
type releaseLog struct {
	mu       sync.Mutex
	buf      []byte
	released time.Time
}

func (l *releaseLog) Write(p []byte) (int, error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		if l.released.IsZero() && bytes.HasPrefix(l.buf[:i], []byte("orchestrator: cluster released")) {
			l.released = now
		}
		l.buf = l.buf[i+1:]
	}
	return len(p), nil
}

// procRep is one orchestration's measurements.
type procRep struct {
	Setup, Wall, CPU time.Duration
	Ops, Errors      uint64
	Elapsed          time.Duration
	Unavail          time.Duration
	Retries, Stale   uint64
	Repairs          uint64
	Tally            tally
	Recovery         sim.Time
	Bound            sim.Time
	ReconnectChecked bool
	Reconnected      bool
	Dials, Reconns   int
	Drops            uint64
	Evidence         int
	Switches         int
	Trace            map[string]layerTime
	Spans            int
}

func procOnce(seed uint64, tr *tracer) (*procRep, error) {
	log := &releaseLog{}
	goruntime.GC()
	cpu0 := cpuTime()
	t0 := time.Now()
	leave := tr.enter("live.RunOrchestrator")
	res, err := live.RunOrchestrator(live.OrchestratorConfig{
		Topo: "full-mesh", Nodes: procNodes, F: procF, Seed: seed,
		Period: procPeriod, Margin: procMargin, Horizon: procHorizon,
		Fault: "kill-restart", FaultAt: procFaultAt, HealAfter: procHeal,
		Clients: procClients, Log: log,
	})
	leave()
	if err != nil {
		return nil, err
	}
	r := &procRep{Wall: time.Since(t0), CPU: cpuTime() - cpu0}
	log.mu.Lock()
	released := log.released
	log.mu.Unlock()
	if released.IsZero() {
		return nil, fmt.Errorf("the orchestrator never logged the cluster's release")
	}
	r.Setup = released.Sub(t0)
	slo, rep := res.SLO, res.Report
	r.Ops, r.Errors, r.Elapsed, r.Unavail = slo.Ops, slo.Errors, slo.Elapsed, slo.MaxUnavail
	r.Retries, r.Stale, r.Repairs = slo.Retries, slo.StaleRetries, slo.Repairs
	r.Tally = judgeSinks(sinkIntervals(rep.PerSink, rep.Horizon), rep.Period, rep.Horizon,
		rep.FaultTimes, rep.RNeeded+rep.Period)
	r.Tally.ClientOps, r.Tally.ClientErrors = int(slo.Ops), int(slo.Errors)
	r.Recovery, r.Bound = rep.MaxRecovery(), rep.RNeeded
	r.ReconnectChecked, r.Reconnected = res.ReconnectChecked, res.Reconnected
	for _, d := range res.Dones {
		r.Evidence += d.Evidence
		r.Switches += d.Switches
		for _, l := range d.Links {
			r.Dials += l.Dials
			r.Reconns += l.Reconnects
			r.Drops += l.Drops
		}
	}
	if tr != nil {
		r.Trace, r.Spans = tr.summary(), tr.count()
	}
	return r, nil
}

// runProcClients runs as many orchestrations as fit the time, each on
// its own input; a traced run pairs untraced and traced ones.
func runProcClients(p params) (*result, error) {
	reps := p.schedule(p.repetitions(procNominal))
	runs := make([]*procRep, len(reps))
	speeds := []float64{hostSpeed()}
	for i, rp := range reps {
		r, err := procOnce(rp.Seed, rp.Tracer)
		if err != nil {
			return nil, err
		}
		runs[i] = r
		speeds = append(speeds, hostSpeed())
	}

	res := newResult()
	var setup, tput, cpu, rawTput, unavail, recovery []float64
	withinR, reconnected, plain := 0, 0, 0
	for i, r := range runs {
		res.Tally.add(r.Tally)
		if reps[i].Tracer != nil {
			continue
		}
		plain++
		setup = append(setup, r.Setup.Seconds())
		rawTput = append(rawTput, float64(r.Ops)/r.Elapsed.Seconds())
		tput = append(tput, float64(r.Ops)/r.Elapsed.Seconds()/speedAround(speeds, i))
		cpu = append(cpu, msDur(r.CPU)/procHorizon)
		unavail = append(unavail, msDur(r.Unavail))
		recovery = append(recovery, ms(r.Recovery))
		if r.Recovery <= r.Bound {
			withinR++
		}
		if r.ReconnectChecked && r.Reconnected {
			reconnected++
		}
	}
	res.EndToEnd["setup_s"] = metric{median(setup) * median(speeds), "s"}
	res.EndToEnd["throughput_per_s"] = metric{median(tput), "1/s"}
	res.EndToEnd["cpu_ms_per_period"] = metric{median(cpu), "ms"}
	t := res.Tally
	res.Info["host_speed"] = metric{median(speeds), "x"}
	res.Info["setup_raw_s"] = metric{median(setup), "s"}
	res.Info["throughput_raw_per_s"] = metric{median(rawTput), "1/s"}
	res.Info["client_ops_per_s"] = metric{median(rawTput), "1/s"}
	res.Info["client_unavail_ms"] = metric{median(unavail), "ms"}
	res.Info["client_error_ratio"] = metric{float64(t.ClientErrors) / float64(t.ClientOps+t.ClientErrors), "ratio"}
	res.Info["recovery_max_ms"] = metric{median(recovery), "ms"}
	res.Info["recovery_bound_ms"] = metric{ms(runs[0].Bound), "ms"}
	res.Info["within_r_runs"] = metric{float64(withinR), "count"}
	res.Info["reconnected_runs"] = metric{float64(reconnected), "count"}
	res.Info["orchestrations"] = metric{float64(plain), "count"}
	res.Info["silent_miss_ratio"] = metric{t.silentMissRatio(), "ratio"}
	res.check("proc.within_r", withinR == plain, false)
	res.check("proc.reconnected", reconnected == plain, false)
	if p.Traced {
		var layers []map[string]metric
		for i, rp := range reps {
			if rp.Tracer != nil {
				layers = append(layers, procLayers(runs[i-1], runs[i]))
			}
		}
		res.Layer = medianMetrics(layers)
	}
	return res, nil
}

// procLayers is the per-layer metrics of a traced orchestration; plain
// is the untraced one of the same input. The node processes' in-process
// counters (signature memos, kernel and network counters, the fault
// phases) stay inside the children: only what their done events and the
// client load generator report is visible, and the rest reads 0.
func procLayers(plain, r *procRep) map[string]metric {
	L := zeroLayers()
	L["runtime.switches"] = metric{float64(r.Switches), "count"}
	L["runtime.evidence_accepted"] = metric{float64(r.Evidence), "count"}
	L["network.tcp.dials"] = metric{float64(r.Dials), "count"}
	L["network.tcp.reconnects"] = metric{float64(r.Reconns), "count"}
	L["network.tcp.drops"] = metric{float64(r.Drops), "count"}
	L["client.retries"] = metric{float64(r.Retries), "count"}
	L["client.stale_retries"] = metric{float64(r.Stale), "count"}
	L["client.repairs"] = metric{float64(r.Repairs), "count"}
	horizon := time.Duration(procHorizon) * time.Duration(procPeriod) * time.Microsecond
	L["live.run_overrun_ms"] = metric{msDur(r.Wall - r.Setup - horizon), "ms"}
	L["trace.spans"] = metric{float64(r.Spans), "count"}
	L["trace.overhead_pct"] = metric{overheadPct(msDur(plain.CPU), msDur(r.CPU)), "%"}
	return L
}
