package runtime

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// debugTrace gates stderr diagnostics for record rejection and watchdog
// firings (BTR_DEBUG_WATCHDOG=1) — the tool for diagnosing why a live or
// multi-process deployment misses arrivals. Cached: the checks sit on the
// per-message hot path.
var debugTrace = os.Getenv("BTR_DEBUG_WATCHDOG") != ""

// arrival is one received (or locally produced) record with provenance.
type arrival struct {
	env  sig.Envelope
	rec  evidence.Record
	atts []sig.Envelope
	at   sim.Time
	// audited is set once re-execution confirmed the record is
	// self-consistent (or the producer is a source, where consistency
	// cannot be checked).
	audited bool
	// consistent is the audit verdict.
	consistent bool
}

// slotKey indexes the inbox by (consumer replica, logical producer).
type slotKey struct {
	consumer flow.TaskID
	logical  flow.TaskID
}

// watchKey names one armed arrival watchdog: the edge it guards plus the
// period it covers.
type watchKey struct {
	period   uint64
	from, to flow.TaskID // producer replica -> consumer replica
}

// Node is one BTR runtime node.
type Node struct {
	id  network.NodeID
	cfg *Config
	sys *System

	behavior *Behavior
	crashed  bool
	// chainArmed tracks whether the self-rescheduling period chain is
	// still alive: schedulePeriod re-arms it, and the chain dies (flag
	// cleared) when a link fires while crashed or non-member. Restart
	// consults it so a crash healed within the same period does not end
	// up with two concurrent chains.
	chainArmed bool

	// strat and planner are the node's *current epoch's* strategy and
	// plan source. Without membership epochs they alias cfg.Strategy /
	// cfg.Planner forever; an epoch activation swaps both atomically
	// with the plan.
	strat   *plan.Strategy
	planner PlanSource
	// memberNow reports whether this node is an active member of the
	// current epoch. Dormant slots (not yet joined, or retired) keep
	// their runtime but schedule no periods, emit nothing, and flood
	// nothing.
	memberNow bool
	// Epoch-switch state (nil / empty unless Config.Epochs is set).
	elog        *member.Log
	seenEpoch   map[[16]byte]bool
	activeEpoch uint64

	cur    *plan.Plan    // current mode's plan
	faults plan.FaultSet // append-only local fault set

	// inbox: per period, per (consumer, logical producer), arrivals.
	inbox map[uint64]map[slotKey][]*arrival
	// firstRecord tracks the first record content per (producer replica,
	// period) for equivocation detection.
	firstRecord map[string]sig.Envelope
	// seenEvidence dedups evidence by ID.
	seenEvidence map[[16]byte]bool
	// attributor aggregates path accusations.
	attributor *evidence.Attributor
	// evBudget counts evidence messages processed per neighbor this
	// period (rate limit).
	evBudget map[network.NodeID]int
	// accusedSlots dedups locally-generated accusations.
	accusedSlots map[string]bool
	// watchdogs holds the armed arrival-watchdog handles. When the
	// awaited record arrives, the watchdog is cancelled immediately —
	// dead watchdog closures no longer sit in the event heap until their
	// timestamp drains (they used to dominate the pending set: one per
	// consumed edge per period, almost all of them no-ops).
	watchdogs map[watchKey]sim.Handle
	// val is the lazily built, node-lifetime evidence validator (see
	// validator() in detect.go).
	val *evidence.Validator

	// Stats.
	EvidenceAccepted int
	EvidenceRejected int
	EvidenceDropped  int // rate-limited
	Switches         int
	EpochSwitches    int
}

func newNode(id network.NodeID, cfg *Config) *Node {
	return &Node{
		id:           id,
		cfg:          cfg,
		strat:        cfg.Strategy,
		planner:      cfg.Planner,
		memberNow:    true,
		cur:          cfg.Strategy.Plans[""],
		faults:       plan.NewFaultSet(),
		inbox:        map[uint64]map[slotKey][]*arrival{},
		firstRecord:  map[string]sig.Envelope{},
		seenEvidence: map[[16]byte]bool{},
		attributor:   evidence.NewAttributor(cfg.Strategy.Opts.OmissionThreshold),
		evBudget:     map[network.NodeID]int{},
		accusedSlots: map[string]bool{},
		watchdogs:    map[watchKey]sim.Handle{},
	}
}

// ID returns the node's identity.
func (n *Node) ID() network.NodeID { return n.id }

// FaultSet returns the node's local fault set.
func (n *Node) FaultSet() plan.FaultSet { return n.faults }

// start schedules period 0.
func (n *Node) start() { n.schedulePeriod(0) }

// periodStart returns the absolute start time of period p.
func (n *Node) periodStart(p uint64) sim.Time {
	return sim.Time(p) * n.strat.Base.Period
}

// schedulePeriod sets up all of this node's slot executions and watchdogs
// for period p, then re-arms for p+1. A node that is not a member of the
// current epoch (dormant or retired) schedules nothing — retirement ends
// the chain here.
func (n *Node) schedulePeriod(p uint64) {
	if n.crashed || !n.memberNow {
		n.chainArmed = false
		return
	}
	n.chainArmed = true
	k := n.cfg.Kernel
	base := n.periodStart(p)
	cur := n.cur // capture: activation may swap plans mid-period

	// Reset per-period evidence budgets (clear keeps the map's storage
	// instead of re-growing a fresh one every period) and flood bogus
	// evidence if the adversary asked for it.
	clear(n.evBudget)
	if b := n.behavior; b != nil && b.BogusEvidencePerPeriod > 0 {
		n.floodBogus(b.BogusEvidencePerPeriod)
	}

	// Execute this node's slots.
	for _, slot := range cur.Table.Slots[n.id] {
		slot := slot
		k.At(base+slot.Start, func() { n.beginTask(cur, p, slot.Task) })
		k.At(base+slot.End, func() { n.finishTask(cur, p, slot.Task) })
	}
	// Arm arrival watchdogs for edges whose consumer lives here (local
	// handoffs included: a colocated producer replica can omit too). The
	// handle is kept so the watchdog can be disarmed the moment the
	// record arrives. Arming walks the edges in the table's sorted order
	// so same-instant watchdogs fire in the same order on every replay.
	margin := n.strat.Opts.WatchdogMargin
	for _, e := range cur.Table.Edges {
		if cur.Assign[e.To] != n.id {
			continue
		}
		e, w := e, cur.Table.Msgs[e]
		h := k.At(base+w.Arrive+margin, func() { n.checkArrived(cur, p, e, w) })
		n.watchdogs[watchKey{p, e.From, e.To}] = h
	}
	// Garbage-collect old inbox periods (keep two).
	if p >= 2 {
		delete(n.inbox, p-2)
	}
	k.At(base+n.strat.Base.Period, func() { n.schedulePeriod(p + 1) })
}

// chosenInputs picks, for each logical input of task, the record the task
// will compute with: the first *audited-consistent* arrival, with majority
// vote among source replicas (sources cannot be audited). Returns nil if
// some logical input has no usable record (omission upstream).
func (n *Node) chosenInputs(cur *plan.Plan, p uint64, task flow.TaskID) ([]*arrival, bool) {
	byLogical := map[flow.TaskID][]*arrival{}
	var logicals []flow.TaskID
	for _, e := range cur.Aug.Inputs(task) {
		logical, _ := plan.SplitReplica(e.From)
		if _, ok := byLogical[logical]; !ok {
			logicals = append(logicals, logical)
			byLogical[logical] = nil
		}
	}
	sort.Slice(logicals, func(i, j int) bool { return logicals[i] < logicals[j] })
	perSlot := n.inbox[p]
	var chosen []*arrival
	for _, logical := range logicals {
		arr := perSlot[slotKey{task, logical}]
		var pick *arrival
		if len(arr) > 0 && arr[0].rec.Producer != "" {
			if isSourceLogical(cur, logical) {
				pick = majority(arr)
				if pick != nil {
					n.accuseSourceMinority(p, task, arr, pick)
				}
			} else {
				for _, a := range arr {
					if a.audited && a.consistent {
						pick = a
						break
					}
				}
			}
		}
		if pick == nil {
			return nil, false
		}
		chosen = append(chosen, pick)
	}
	return chosen, true
}

func isSourceLogical(cur *plan.Plan, logical flow.TaskID) bool {
	if t, ok := cur.Pruned.Tasks[logical]; ok {
		return t.Source
	}
	return false
}

// majority returns the arrival whose value has the most supporters
// (ties: earliest arrival among the largest class).
func majority(arr []*arrival) *arrival {
	counts := map[string]int{}
	for _, a := range arr {
		counts[string(a.rec.Value)]++
	}
	best, bestCount := -1, 0
	for i, a := range arr {
		c := counts[string(a.rec.Value)]
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return nil
	}
	return arr[best]
}

// beginTask is a hook at slot start; execution semantics are applied at
// finishTask (the table accounts for the WCET in between).
func (n *Node) beginTask(cur *plan.Plan, p uint64, task flow.TaskID) {
	if n.crashed || n.cur != cur {
		return
	}
}

// finishTask computes the task's output at its slot end and emits it.
func (n *Node) finishTask(cur *plan.Plan, p uint64, task flow.TaskID) {
	if n.crashed || n.cur != cur {
		return
	}
	logical, _ := plan.SplitReplica(task)
	lt, ok := cur.Pruned.Tasks[logical]
	isChecker := plan.IsChecker(logical)
	if !ok && !isChecker {
		return
	}

	var value []byte
	var chosen []*arrival
	switch {
	case isChecker:
		n.runChecker(cur, p, task)
		return
	case lt.Source:
		value = n.cfg.Source(logical, p)
	default:
		var usable bool
		chosen, usable = n.chosenInputs(cur, p, task)
		if !usable {
			return // upstream omission: this replica stays silent
		}
		recs := make([]evidence.Record, len(chosen))
		for i, a := range chosen {
			recs[i] = a.rec
		}
		value = n.cfg.Compute(logical, p, recs)
	}

	// Build the signed record committing to the chosen inputs.
	var atts []sig.Envelope
	for _, a := range chosen {
		atts = append(atts, a.env)
	}
	slotEnd := n.slotEnd(cur, task)
	rec := evidence.Record{
		Producer: task, Logical: logical, Node: n.id,
		Period: p, SendOff: slotEnd, Value: value,
		InputsDigest: evidence.DigestEnvelopes(atts),
	}

	// Actuate if this replica implements a logical sink.
	if lt != nil && lt.Sink {
		n.actuate(cur, p, logical, rec, atts)
	}

	// Emit one message per output edge. The record is sealed and framed
	// once and every edge that carries it unchanged sends those bytes.
	env := n.cfg.Registry.Seal(n.id, rec.Encode())
	payload := dataPayload(env, atts)
	for _, e := range cur.Aug.Outputs(task) {
		n.emit(cur, rec, atts, env, payload, e)
	}
}

// slotEnd looks up the task's planned completion offset.
func (n *Node) slotEnd(cur *plan.Plan, task flow.TaskID) sim.Time {
	return cur.Table.Finish[task]
}

// actuate delivers the sink command to the physical world (unless the
// adversary suppresses it).
func (n *Node) actuate(cur *plan.Plan, p uint64, logical flow.TaskID, rec evidence.Record, atts []sig.Envelope) {
	if b := n.behavior; b != nil {
		if b.SkipActuation {
			return
		}
		if b.OnOutput != nil {
			mutated, delay, send := b.OnOutput(rec, logical)
			if !send {
				return
			}
			rec = mutated
			if delay > 0 {
				at := n.cfg.Kernel.Now() + delay
				n.cfg.Kernel.After(delay, func() {
					if n.cfg.OnActuation != nil {
						n.cfg.OnActuation(n.id, logical, p, rec.Value, at)
					}
				})
				return
			}
		}
	}
	if n.cfg.OnActuation != nil {
		n.cfg.OnActuation(n.id, logical, p, rec.Value, n.cfg.Kernel.Now())
	}
}

// emit sends one record instance along edge e: the honest record's
// sealed envelope env and its data frame payload, unless the adversary's
// output hook suppresses, delays or rewrites it. A rewritten record is
// sealed on its own; ed25519 is deterministic, so an unchanged one goes
// out as the same bytes a per-edge seal would produce.
func (n *Node) emit(cur *plan.Plan, rec evidence.Record, atts []sig.Envelope, env sig.Envelope, payload []byte, e flow.Edge) {
	var extraDelay sim.Time
	if b := n.behavior; b != nil && b.OnOutput != nil {
		mutated, delay, send := b.OnOutput(rec, e.To)
		if !send {
			return
		}
		extraDelay = delay
		// Equivocation keeps the committed attachments: the adversary
		// mutates the record, not its inputs (a mismatched digest would
		// be a bad-input proof instead).
		if body := mutated.Encode(); !bytes.Equal(body, env.Body) {
			env = n.cfg.Registry.Seal(n.id, body)
			payload = dataPayload(env, atts)
		}
	}
	dst := cur.Assign[e.To]
	send := func() {
		if dst == n.id {
			n.acceptRecord(env, atts, nil)
			return
		}
		n.cfg.Net.Send(n.id, dst, network.ClassForeground, payload)
	}
	if extraDelay > 0 {
		n.cfg.Kernel.After(extraDelay, send)
	} else {
		send()
	}
}

// runChecker audits the sink replicas feeding checker task `task`
// (performed in detect.go; split for readability).
func (n *Node) runChecker(cur *plan.Plan, p uint64, task flow.TaskID) {
	n.auditSinkRecords(cur, p, task)
}

// onMessage is the network delivery handler.
func (n *Node) onMessage(m *network.Message) {
	if n.crashed {
		return
	}
	if len(m.Payload) == 0 {
		return
	}
	switch m.Payload[0] {
	case msgData:
		env, atts, err := parseDataPayload(m.Payload)
		if err != nil {
			return // malformed frame: MAC-level noise, drop
		}
		n.acceptRecord(env, atts, m)
	case msgEvidence:
		n.onEvidenceMessage(m)
	case msgMember:
		n.onEpochFrame(m.Payload, m)
	}
}

// acceptRecord ingests a dataflow record (remote or local handoff),
// running the detector checks.
func (n *Node) acceptRecord(env sig.Envelope, atts []sig.Envelope, m *network.Message) {
	dbg := func(reason string, rec *evidence.Record) {
		if !debugTrace {
			return
		}
		if rec != nil {
			fmt.Fprintf(os.Stderr, "[node %d] acceptRecord: %s (producer %s period %d from node %d)\n",
				n.id, reason, rec.Producer, rec.Period, env.Signer)
		} else {
			fmt.Fprintf(os.Stderr, "[node %d] acceptRecord: %s (signer %d)\n", n.id, reason, env.Signer)
		}
	}
	if !n.cfg.Registry.Check(env) {
		dbg("bad signature", nil)
		return // unsigned garbage: drop
	}
	if n.faults.Contains(env.Signer) {
		dbg("convicted signer", nil)
		return // isolate convicted nodes: their records are ignored
	}
	rec, err := evidence.DecodeRecord(env.Body)
	if err != nil || rec.Node != env.Signer {
		dbg("malformed record", nil)
		return
	}
	cur := n.cur
	// Find the consumer for this record on this node: the edge whose
	// producer is rec.Producer and whose consumer is assigned here.
	var consumers []flow.TaskID
	for _, e := range cur.Aug.Outputs(rec.Producer) {
		if cur.Assign[e.To] == n.id {
			consumers = append(consumers, e.To)
		}
	}
	if len(consumers) == 0 {
		dbg("no consumer in current mode", &rec)
		return // stale record from a previous mode
	}
	a := &arrival{env: env, rec: rec, atts: atts, at: n.cfg.Kernel.Now()}
	if !n.detectOnArrival(cur, a) {
		dbg("failed arrival detector", &rec)
		return // malformed (digest/attachment tampering): not an arrival
	}
	for _, c := range consumers {
		key := slotKey{c, rec.Logical}
		per := n.inbox[rec.Period]
		if per == nil {
			per = map[slotKey][]*arrival{}
			n.inbox[rec.Period] = per
		}
		// Dedup: one arrival per producer replica per consumer slot.
		dup := false
		for _, prev := range per[key] {
			if prev.rec.Producer == a.rec.Producer {
				dup = true
				break
			}
		}
		if !dup {
			per[key] = append(per[key], a)
		}
		// The awaited record is here: disarm the edge's watchdog instead
		// of letting a dead closure fire later (checkArrived would only
		// have found the arrival and returned).
		wk := watchKey{rec.Period, rec.Producer, c}
		if h, ok := n.watchdogs[wk]; ok {
			n.cfg.Kernel.Cancel(h)
			delete(n.watchdogs, wk)
		}
	}
}
