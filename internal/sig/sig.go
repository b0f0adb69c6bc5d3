// Package sig provides the cryptographic substrate BTR's evidence relies
// on: every node holds an ed25519 keypair, every dataflow output and every
// piece of evidence is signed, and any node can verify any other node's
// signatures. The Byzantine adversary controls compromised nodes' behavior
// but not other nodes' private keys, so evidence built from signed
// statements is self-certifying (§4.2 of the paper).
//
// BTR schedules crypto alongside the workload ("there are no extra
// resources for BTR", §4.1). The simulated price of a signature is the
// scheduler's per-message charge (sched.Params SignCost/VerifyCost); this
// package does the real ed25519 work, and its *host* price is cut by the
// verification/seal memos in memo.go, which exploit ed25519's determinism
// to make Verify a memoized pure function (see memo.go for the soundness
// argument: positive-only entries keyed by the full signer/digest/signature
// triple).
//
// A memo miss is verified against a per-signer fixed-base table
// (verify.go): the kernel is edwards25519.VarTimeDoubleFixedBaseMult,
// which evaluates [k](−A) + [S]B from precomputed radix-16 multiples of
// the signer's −A and of B, and returns crypto/ed25519.Verify's verdict
// on every input. It runs in variable time, which is safe because every
// verify input — key, message, signature — is public, and because its
// tables are built only from the registry's own keys, never from bytes
// read off the wire. Signing stays on constant-time crypto/ed25519.Sign.
package sig

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"

	"btr/internal/network"
	"btr/internal/sim"
)

// Registry maps node IDs to keypairs. Keys are derived deterministically
// from a seed so simulations are reproducible.
type Registry struct {
	privs []ed25519.PrivateKey
	pubs  []ed25519.PublicKey
	// memo / seals are the crypto fast path (nil = always recompute).
	// They default to the process-shared instances so concurrent campaign
	// workers replaying same-seed deployments reuse each other's work.
	memo  *VerifyMemo
	seals *SealMemo
	// opPriv/opPub is the operator (configuration-authority) keypair:
	// membership epoch records (internal/member) are signed with it, so
	// compromised nodes cannot forge reconfigurations. The adversary
	// controls node keys of compromised nodes, never the operator key.
	opPriv ed25519.PrivateKey
	opPub  ed25519.PublicKey
	// signers holds each key's slot and its lazily built verification
	// tables (verify.go): index i < n is node i, index n the operator key.
	signers []signer
}

// NewRegistry creates keypairs for nodes 0..n-1, derived from seed.
func NewRegistry(seed uint64, n int) *Registry {
	r := &Registry{
		privs:   make([]ed25519.PrivateKey, n),
		pubs:    make([]ed25519.PublicKey, n),
		signers: make([]signer, n+1),
	}
	if memosEnabled.Load() {
		r.memo, r.seals = sharedVerify, sharedSeal
	}
	rng := sim.NewRNG(seed ^ 0x5167_5167_5167_5167)
	for i := 0; i < n; i++ {
		var kseed [ed25519.SeedSize]byte
		for j := 0; j < ed25519.SeedSize; j += 8 {
			binary.LittleEndian.PutUint64(kseed[j:], rng.Uint64())
		}
		r.privs[i] = ed25519.NewKeyFromSeed(kseed[:])
		r.pubs[i] = r.privs[i].Public().(ed25519.PublicKey)
		r.signers[i].pub = r.pubs[i]
	}
	// The operator key is drawn after every node key so adding it did not
	// disturb the node keys any historical seed derives.
	var oseed [ed25519.SeedSize]byte
	for j := 0; j < ed25519.SeedSize; j += 8 {
		binary.LittleEndian.PutUint64(oseed[j:], rng.Uint64())
	}
	r.opPriv = ed25519.NewKeyFromSeed(oseed[:])
	r.opPub = r.opPriv.Public().(ed25519.PublicKey)
	r.signers[n].pub = r.opPub
	return r
}

// OperatorSign returns the operator key's signature over msg. Only the
// deployment harness (the configuration authority proposing membership
// epochs) calls this; nodes hold the public half only.
func (r *Registry) OperatorSign(msg []byte) []byte {
	return ed25519.Sign(r.opPriv, msg)
}

// OperatorVerify reports whether sig is the operator's valid signature
// over msg. Verification goes through the shared memo like node-key
// verification (ed25519 is deterministic, so the memo stays sound).
func (r *Registry) OperatorVerify(msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize {
		return false
	}
	return r.verify(len(r.pubs), msg, sig)
}

// UseMemos overrides the registry's memos (nil disables caching). Tests
// and benchmarks use it to isolate or freeze the cache; production code
// keeps the shared defaults.
func (r *Registry) UseMemos(v *VerifyMemo, s *SealMemo) {
	r.memo, r.seals = v, s
}

// N returns the number of registered nodes.
func (r *Registry) N() int { return len(r.pubs) }

// Sign returns id's signature over msg. Only the simulation harness calls
// this on behalf of a node; the adversary "owns" compromised nodes' keys,
// which is exactly the Byzantine model.
func (r *Registry) Sign(id network.NodeID, msg []byte) []byte {
	return ed25519.Sign(r.privs[id], msg)
}

// Verify reports whether sig is id's valid signature over msg. Repeated
// verifications of the same triple hit the memo (memo.go) and skip the
// ed25519 math; a miss runs the fixed-base verifier (verify.go). The
// result equals crypto/ed25519.Verify's either way.
func (r *Registry) Verify(id network.NodeID, msg, sig []byte) bool {
	if int(id) < 0 || int(id) >= len(r.pubs) || len(sig) != ed25519.SignatureSize {
		return false
	}
	return r.verify(int(id), msg, sig)
}

// verify checks sig over msg under the key in signer slot slot, through
// the memo when there is one.
func (r *Registry) verify(slot int, msg, sig []byte) bool {
	s := &r.signers[slot]
	if r.memo == nil {
		return s.verify(msg, sig)
	}
	return r.memo.verify(s.pub, msg, sig, func() bool { return s.verify(msg, sig) })
}

// VerifyUncached is the memo-free verification path — the frozen baseline
// the cached-vs-uncached benchmarks compare against. Behavior is
// identical to Verify.
func (r *Registry) VerifyUncached(id network.NodeID, msg, sig []byte) bool {
	if int(id) < 0 || int(id) >= len(r.pubs) || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(r.pubs[id], msg, sig)
}

// SignatureSize is the wire size of a signature.
const SignatureSize = ed25519.SignatureSize

// Envelope is a signed statement: Signer attests to Body. Envelopes are
// the unit from which both dataflow messages and evidence are built.
type Envelope struct {
	Signer network.NodeID
	Body   []byte
	Sig    []byte
}

// Seal signs body as signer and returns the envelope.
func (r *Registry) Seal(signer network.NodeID, body []byte) Envelope {
	return Envelope{Signer: signer, Body: body, Sig: r.Sign(signer, body)}
}

// Check verifies the envelope's signature.
func (r *Registry) Check(e Envelope) bool {
	return r.Verify(e.Signer, e.Body, e.Sig)
}

// SealedPayload returns prefix || Seal(signer, body).Encode() — the framed
// wire form transport code sends — through the seal memo: re-sealing an
// identical (signer, prefix, body) yields the same cached slice with zero
// allocations. The returned slice is shared; callers must not mutate it.
func (r *Registry) SealedPayload(signer network.NodeID, prefix byte, body []byte) []byte {
	if r.seals != nil {
		return r.seals.payload(r.privs[signer], r.pubs[signer], uint32(signer), prefix, body)
	}
	return framedSeal(r.privs[signer], uint32(signer), prefix, body)
}

var errTruncated = errors.New("sig: truncated envelope")

// MaxBody caps an envelope body on the wire. The length field is a
// uint32, so the hard format limit is 4GiB, but no legitimate BTR
// payload (task outputs, evidence, membership records) comes within
// orders of magnitude of 16MiB — a larger body is a programming error
// upstream, and capping well below the field width makes the invariant
// testable. AppendTo enforces it as an invariant (the earlier behavior
// silently truncated the length through uint32(...), emitting a frame
// that fails decode as a framing or signature mismatch at the receiver);
// DecodeEnvelope rejects it symmetrically before allocating.
const MaxBody = 16 << 20

// Encode serializes the envelope: signer(4) | len(4) | body | sig(64).
func (e Envelope) Encode() []byte {
	return e.AppendTo(make([]byte, 0, e.EncodedSize()))
}

// EncodedSize returns len(Encode()) without encoding.
func (e Envelope) EncodedSize() int { return 8 + len(e.Body) + len(e.Sig) }

// AppendTo appends the envelope's encoding to dst and returns the
// extended slice — the zero-alloc building block hot marshaling paths use
// with preallocated or pooled buffers. A body longer than MaxBody panics
// (invariant MaxBody) instead of truncating the length field on the
// wire.
func (e Envelope) AppendTo(dst []byte) []byte {
	if len(e.Body) > MaxBody {
		panic(fmt.Sprintf("sig: invariant MaxBody violated: body %d > %d", len(e.Body), MaxBody))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.Signer))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(e.Body)))
	dst = append(dst, e.Body...)
	return append(dst, e.Sig...)
}

// DecodeEnvelope parses an encoded envelope. It is strict: trailing bytes
// or a short signature are errors, so malformed (possibly adversarial)
// input is rejected cheaply before any signature check.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < 8 {
		return Envelope{}, errTruncated
	}
	signer := network.NodeID(binary.LittleEndian.Uint32(b[0:]))
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n < 0 || n > MaxBody || len(b) != 8+n+SignatureSize {
		return Envelope{}, fmt.Errorf("sig: bad envelope framing (body %d, total %d)", n, len(b))
	}
	body := make([]byte, n)
	copy(body, b[8:8+n])
	s := make([]byte, SignatureSize)
	copy(s, b[8+n:])
	return Envelope{Signer: signer, Body: body, Sig: s}, nil
}
