// Package btr reproduces "Fault Tolerance and the Five-Second Rule"
// (Chen, Xiao, Haeberlen, Phan — HotOS XV, 2015): bounded-time recovery
// (BTR) for cyber-physical systems, together with every substrate the
// design depends on — a deterministic discrete-event simulator, a
// finite-bandwidth network with statically allocated link shares, an
// ed25519 signature layer, periodic mixed-criticality dataflow workloads,
// table-driven scheduling, the offline strategy planner, the online
// detector / evidence distributor / mode switcher, physical plant models,
// and the baseline protocols BTR is compared against.
//
// The runtime is transport-agnostic: every layer above the substrate is
// written against two seams — sim.Scheduler (discrete-event Kernel or
// wall-clock WallScheduler) and network.Transport (simulated Network or
// live channel-based Bus) — so the same node executive that passes the
// deterministic campaigns also runs as a live wall-clock deployment
// (internal/live, cmd/btrlive) with recovery measured in real time
// against the provable bound R.
//
// Membership is online: internal/member defines operator-signed,
// hash-chained epoch records (membership set + link delta), the runtime
// switches epochs with a two-phase prepare/commit protocol (quorum of
// n-f acks, activation at a signed instant past both epochs'
// distribution bounds), and the transport adds/removes Bus lanes as
// slots join and retire. Node identities and keys are never reassigned
// across epochs, so evidence signed in any prior epoch stays
// attributable forever and fault sets remain append-only through
// reconfiguration. Epoch re-planning rides the incremental plan engine:
// a dormant slot plans exactly like an excluded node, so warm churn
// re-plans nothing. The C6 campaign family (and btrlive's
// -join/-retire/-replace flags) exercise join/retire/replace storms
// across five topology families, holding recovery within the per-epoch
// bound R across every epoch boundary.
//
// The fault model is machine-checked: FAULT_MODEL.md states, for every
// behavior in the catalog, what happens at ≤ f active faults (tolerated
// within the provable bound R), beyond f transiently (detected — signed
// over-budget verdicts open a degraded window that a reconciled verdict
// closes when convictions expire on the parole clock,
// runtime.Config.ForgiveAfter), and under a sustained fault arrival
// rate (the C8 campaign family, internal/faultrate, locates the knee).
// Every tolerated/detected cell cites the test or bench gate proving
// it, and cmd/btrfaultmodel verifies the citations in CI.
//
// Host-side crypto cost is amortized by the internal/sig memo fast path:
// verification and sealing are deterministic, so they are memoized
// (positive entries only, full-triple keys) and evidence blobs are
// encoded once and forwarded by slice reuse — campaign wall clock drops
// >2x while every simulated-time result, including the scheduler's
// modeled per-message crypto charges (sched.Params SignCost/VerifyCost),
// stays byte-identical. The runtime also skips crypto that was never
// needed: a task output is sealed once for all its output edges, and a
// duplicate evidence blob is dropped by its ID before its endorsement is
// verified.
//
// Start with README.md, the runnable examples under examples/, or the
// experiment harness:
//
//	go run ./cmd/btrbench        # regenerate every experiment table
//	go run ./examples/quickstart # smallest complete deployment
//	go run ./cmd/btrlive         # live wall-clock deployment + fault injection
//
// The library surface lives under internal/ (this is a research
// reproduction, not a stable API); cmd/ and examples/ show every intended
// usage pattern.
package btr
