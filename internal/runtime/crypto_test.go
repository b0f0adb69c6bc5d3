package runtime

import (
	"bytes"
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// tapNet records every routed send on top of the simulated network.
type tapNet struct {
	*network.Network
	sent []tapped
}

type tapped struct {
	src, dst network.NodeID
	payload  []byte
}

func (t *tapNet) Send(src, dst network.NodeID, class network.Class, payload []byte) bool {
	t.sent = append(t.sent, tapped{src, dst, payload})
	return t.Network.Send(src, dst, class, payload)
}

// consumerAt is one remote consumer of a producer replica's output.
type consumerAt struct {
	task flow.TaskID
	node network.NodeID
}

// emitted runs a 3-chain on a 6-node mesh (f=1) through period p and
// returns the data frames producer replica c1#0 sent for period p, keyed
// by destination node, plus the remote consumers of its output edges.
// hook, if non-nil, is installed as the producer node's output hook just
// before period p.
func emitted(t *testing.T, p uint64, hook func(evidence.Record, flow.TaskID) (evidence.Record, sim.Time, bool)) (map[network.NodeID][]byte, []consumerAt) {
	t.Helper()
	const seed = 3
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	k := sim.NewKernel(seed)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
	tap := &tapNet{Network: network.New(k, topo, network.DefaultConfig())}
	strategy, err := plan.Build(g, topo, plan.DefaultOptions(1, 500*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys := New(Config{Kernel: k, Net: tap, Registry: sig.NewRegistry(seed, 6), Strategy: strategy})
	base := strategy.Plans[""]
	const producer = flow.TaskID("c1#0")
	node := base.Assign[producer]
	var remote []consumerAt
	for _, e := range base.Aug.Outputs(producer) {
		if dst := base.Assign[e.To]; dst != node {
			remote = append(remote, consumerAt{e.To, dst})
		}
	}
	if hook != nil {
		k.At(sim.Time(p)*strategy.Base.Period, func() {
			sys.SetBehavior(node, &Behavior{OnOutput: hook})
		})
	}
	sys.Start()
	k.Run(sim.Time(p+1) * strategy.Base.Period)

	out := map[network.NodeID][]byte{}
	for _, s := range tap.sent {
		if s.src != node || s.payload[0] != msgData {
			continue
		}
		env, _, err := parseDataPayload(s.payload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := evidence.DecodeRecord(env.Body)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Producer == producer && rec.Period == p {
			if _, dup := out[s.dst]; dup {
				t.Fatalf("two period-%d frames from %s to node %d", p, producer, s.dst)
			}
			out[s.dst] = s.payload
		}
	}
	return out, remote
}

// An honest replica seals its output once: every remote edge carries
// the same framed bytes — one slice, so one signature.
func TestHonestOutputSealedOnce(t *testing.T) {
	const p = 5
	sent, remote := emitted(t, p, nil)
	if len(remote) < 2 {
		t.Fatalf("producer has %d remote output edges, want >= 2", len(remote))
	}
	if len(sent) != len(remote) {
		t.Fatalf("%d frames for %d remote edges", len(sent), len(remote))
	}
	var first []byte
	for dst, payload := range sent {
		if first == nil {
			first = payload
			continue
		}
		if !bytes.Equal(payload, first) {
			t.Errorf("frame to node %d differs from the others", dst)
		}
		if &payload[0] != &first[0] {
			t.Errorf("frame to node %d was sealed and framed separately", dst)
		}
	}
}

// An output hook that rewrites one edge gets a distinct, validly signed
// record on that edge; every other edge still carries the honest bytes.
func TestMutatedEdgeSealedSeparately(t *testing.T) {
	const p = 5
	honest, remote := emitted(t, p, nil)
	target := remote[0]
	sent, _ := emitted(t, p, func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
		if consumer == target.task {
			rec.Value = append([]byte("fork:"), rec.Value...)
		}
		return rec, 0, true
	})
	if len(sent) != len(honest) {
		t.Fatalf("%d frames with the hook, %d without", len(sent), len(honest))
	}
	if _, ok := sent[target.node]; !ok {
		t.Fatal("no frame on the rewritten edge")
	}
	reg := sig.NewRegistry(3, 6)
	for dst, payload := range sent {
		if dst != target.node {
			if !bytes.Equal(payload, honest[dst]) {
				t.Errorf("untouched edge to node %d does not carry the honest bytes", dst)
			}
			continue
		}
		env, _, err := parseDataPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reg.Check(env) {
			t.Error("rewritten record is not validly signed")
		}
		rec, err := evidence.DecodeRecord(env.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(rec.Value, []byte("fork:")) {
			t.Errorf("rewritten edge carries value %q", rec.Value)
		}
		if bytes.Equal(payload, honest[dst]) {
			t.Error("rewritten edge carries the honest bytes")
		}
	}
}

// dedupeFixture is node 2 of a fresh chain harness verifying through a
// private memo, plus a validly signed accusation blob from node 1.
type dedupeFixture struct {
	h        *harness
	reg      *sig.Registry
	memo     *sig.VerifyMemo
	receiver *Node
}

func newDedupeFixture(t *testing.T) *dedupeFixture {
	t.Helper()
	h := chainHarness(t, 9)
	reg := h.sys.cfg.Registry
	memo := sig.NewVerifyMemo()
	reg.UseMemos(memo, nil)
	return &dedupeFixture{h: h, reg: reg, memo: memo, receiver: h.sys.Node(2)}
}

// accusation returns node 1's signed path accusation for period p.
func (f *dedupeFixture) accusation(p uint64) []byte {
	acc := evidence.Accusation{Reporter: 1, Path: []network.NodeID{3, 4}, Producer: "c1#0", Consumer: "c2#0", Period: p}
	return evidence.Evidence{
		Kind: evidence.KindPathAccusation, Accused: -1, Reporter: 1,
		DetectedAt: sim.Millisecond, Primary: f.reg.Seal(1, acc.Encode()),
	}.Encode()
}

// deliver hands the receiver body endorsed by node 1, with the
// endorsement's signature corrupted if corrupt is set.
func (f *dedupeFixture) deliver(body []byte, corrupt bool) {
	wrapper := f.reg.Seal(1, body)
	if corrupt {
		wrapper.Sig = bytes.Clone(wrapper.Sig)
		wrapper.Sig[0] ^= 1
	}
	f.receiver.onEvidenceMessage(&network.Message{From: 1, To: 2, Payload: evidencePayload(wrapper)})
}

func (f *dedupeFixture) bogusRaised() bool {
	for _, ev := range f.h.evidences {
		if ev.Kind == evidence.KindBogus {
			return true
		}
	}
	return false
}

// A blob the receiver has already accepted is dropped by its ID before
// any signature work, even under a corrupted endorsement.
func TestDuplicateEvidenceSkipsEndorsementCheck(t *testing.T) {
	f := newDedupeFixture(t)
	blob := f.accusation(1)
	f.deliver(blob, false)
	if f.receiver.EvidenceAccepted != 1 {
		t.Fatalf("first copy: accepted %d, want 1", f.receiver.EvidenceAccepted)
	}
	_, misses := f.memo.Stats()
	f.deliver(blob, true)
	if _, after := f.memo.Stats(); after != misses {
		t.Errorf("duplicate cost %d verify misses, want 0", after-misses)
	}
	if f.receiver.EvidenceAccepted != 1 || f.receiver.EvidenceRejected != 0 {
		t.Errorf("duplicate changed counters: accepted %d rejected %d",
			f.receiver.EvidenceAccepted, f.receiver.EvidenceRejected)
	}
	if f.bogusRaised() {
		t.Error("duplicate under a corrupted endorsement raised a bogus proof")
	}
}

// A first-seen blob under a corrupted endorsement is verified, dropped
// unattributed, and does not poison the seen set: the validly endorsed
// copy is still accepted afterwards.
func TestUnseenEvidenceEndorsementStillVerified(t *testing.T) {
	f := newDedupeFixture(t)
	blob := f.accusation(2)
	_, misses := f.memo.Stats()
	f.deliver(blob, true)
	if _, after := f.memo.Stats(); after == misses {
		t.Error("unseen blob's endorsement was not verified")
	}
	if f.receiver.EvidenceAccepted != 0 || f.receiver.EvidenceRejected != 0 || len(f.h.evidences) != 0 {
		t.Fatalf("corrupted endorsement: accepted %d rejected %d raised %d",
			f.receiver.EvidenceAccepted, f.receiver.EvidenceRejected, len(f.h.evidences))
	}
	f.deliver(blob, false)
	if f.receiver.EvidenceAccepted != 1 {
		t.Errorf("valid copy after a corrupted one: accepted %d, want 1", f.receiver.EvidenceAccepted)
	}
}

// A validly endorsed body that does not decode convicts its endorser.
func TestUndecodableEvidenceConvictsEndorser(t *testing.T) {
	f := newDedupeFixture(t)
	f.deliver([]byte("not an evidence blob"), false)
	if f.receiver.EvidenceRejected != 1 {
		t.Errorf("rejected %d, want 1", f.receiver.EvidenceRejected)
	}
	convicted := false
	for _, ev := range f.h.evidences {
		convicted = convicted || (ev.Kind == evidence.KindBogus && ev.Accused == 1)
	}
	if !convicted {
		t.Error("undecodable endorsed body raised no bogus proof against its endorser")
	}
}
