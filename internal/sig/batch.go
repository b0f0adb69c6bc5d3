package sig

// ed25519 batch verification — the saturation fast path.
//
// A flood period delivers N envelopes from up to N distinct signers; the
// sequential path pays N full scalar multiplications even when every
// signature is fresh (the memo only removes *repeated* work). The batch
// path instead checks the single cofactored equation
//
//	[8](−(Σ z_i·s_i)·B + Σ z_i·R_i + Σ (z_i·k_i)·A_i) == identity
//
// with k_i = SHA-512(R_i ‖ A_i ‖ msg_i) mod L and fresh random 128-bit
// scalars z_i, which one variable-time multi-scalar multiplication
// evaluates with a *shared* doubling chain: the per-signature marginal
// cost drops from a full scalar multiplication to one NAF table build
// plus a handful of additions.
//
// Soundness. If every signature satisfies its individual cofactored
// equation, the batch equation holds for any z. Conversely, if some
// signature is invalid, the batch equation is a nontrivial linear
// relation in the random z_i and holds with probability ≤ 2^-128 — so a
// batch "accept" is as strong as per-signature cofactored acceptance,
// and a batch "reject" is re-checked sequentially to locate the culprit
// (never trusting the probabilistic path for a negative verdict).
//
// Cofactored vs cofactorless. crypto/ed25519's Verify uses the
// *cofactorless* equation; the batch equation must be cofactored to be
// well-defined (only the cofactored criterion is compatible with random
// linear combination — see Chalkias et al., "Taming the many EdDSAs").
// The two criteria agree on every signature produced by honest signing
// and on every corruption reachable by flipping bits of such signatures;
// they can disagree only on deliberately crafted signatures exploiting
// the eight small-order torsion points. An adversary can craft such
// signatures only under its OWN key (doing so requires choosing R), so
// acceptance differences never forge statements by honest signers, and
// every node runs the same acceptance path, so the system stays
// internally consistent. The differential quick-check in batch_test.go
// pins agreement on the reachable corruption classes.

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"

	edwards "btr/internal/sig/edwards25519"
)

// BatchVerify reports whether every (pub, msg, sig) triple passes the
// cofactored ed25519 batch equation. All three slices must have equal
// length; an empty batch verifies trivially. A false return means at
// least one triple is invalid but does not say which — callers that need
// the culprit fall back to a per-signature sweep (see CheckBatch).
func BatchVerify(pubs []ed25519.PublicKey, msgs, sigs [][]byte) bool {
	n := len(pubs)
	if len(msgs) != n || len(sigs) != n {
		return false
	}
	if n == 0 {
		return true
	}

	// One random draw for every z_i: 16 bytes each, zero-extended to a
	// canonical 32-byte scalar (< 2^128 ≪ L).
	zraw := make([]byte, 16*n)
	if _, err := rand.Read(zraw); err != nil {
		return false // no randomness, no probabilistic acceptance
	}

	// scalars/points for −(Σ z_i·s_i)·B + Σ z_i·R_i + Σ (z_i·k_i)·A_i.
	scalars := make([]*edwards.Scalar, 0, 2*n+1)
	points := make([]*edwards.Point, 0, 2*n+1)
	zsSum := edwards.NewScalar()
	var zbuf [32]byte
	h := sha512.New()
	for i := 0; i < n; i++ {
		if len(pubs[i]) != ed25519.PublicKeySize || len(sigs[i]) != ed25519.SignatureSize {
			return false
		}
		A, err := new(edwards.Point).SetBytes(pubs[i])
		if err != nil {
			return false
		}
		R, err := new(edwards.Point).SetBytes(sigs[i][:32])
		if err != nil {
			return false
		}
		// RFC 8032 §5.1.7: reject non-canonical s (crypto/ed25519 does too).
		s, err := edwards.NewScalar().SetCanonicalBytes(sigs[i][32:])
		if err != nil {
			return false
		}
		copy(zbuf[:16], zraw[16*i:])
		z, err := edwards.NewScalar().SetCanonicalBytes(zbuf[:])
		if err != nil {
			return false // unreachable: top 128 bits are zero
		}
		h.Reset()
		h.Write(sigs[i][:32])
		h.Write(pubs[i])
		h.Write(msgs[i])
		k, err := edwards.NewScalar().SetUniformBytes(h.Sum(nil))
		if err != nil {
			return false // unreachable: input is exactly 64 bytes
		}
		zsSum.MultiplyAdd(z, s, zsSum)
		scalars = append(scalars, z, edwards.NewScalar().Multiply(z, k))
		points = append(points, R, A)
	}
	scalars = append(scalars, edwards.NewScalar().Negate(zsSum))
	points = append(points, edwards.NewGeneratorPoint())

	p := new(edwards.Point).VarTimeMultiScalarMult(scalars, points)
	return p.MultByCofactor(p).Equal(edwards.NewIdentityPoint()) == 1
}

// minBatch is the smallest number of memo-missing envelopes worth the
// batch equation's fixed costs (random scalar draws, point
// decompression, NAF table builds). Below it the sequential memoized
// loop is at least as fast and keeps exact first-failure semantics.
const minBatch = 4

// CheckBatch verifies a batch of envelopes. It returns (-1, true) when
// every envelope verifies, or (i, false) for the first envelope that
// does not — the same contract as the sequential loop it replaced.
//
// Fast path: memo hits are filtered out up front, the remaining
// envelopes are checked in ONE cofactored batch equation, and on success
// every triple is inserted into the memo (so later per-envelope Check
// calls — e.g. the flood ingest path this batch primed — hit). On batch
// failure, or when the miss set is smaller than minBatch, it falls back
// to CheckBatchSequential, which also locates the first culprit.
func (r *Registry) CheckBatch(envs []Envelope) (int, bool) {
	if r.memo == nil || len(envs) < minBatch {
		return r.CheckBatchSequential(envs)
	}
	missIdx := make([]int, 0, len(envs))
	keys := make([]verifyKey, 0, len(envs))
	for i := range envs {
		e := &envs[i]
		if int(e.Signer) < 0 || int(e.Signer) >= len(r.pubs) || len(e.Sig) != ed25519.SignatureSize {
			// Malformed before any crypto: the sequential sweep reports
			// the first failure index with identical semantics.
			return r.CheckBatchSequential(envs)
		}
		k := makeVerifyKey(r.pubs[e.Signer], e.Body, e.Sig)
		if r.memo.lookup(k) {
			continue
		}
		missIdx = append(missIdx, i)
		keys = append(keys, k)
	}
	if len(missIdx) < minBatch {
		return r.CheckBatchSequential(envs) // hits are free, misses few
	}
	if r.batchVerifyCached(envs, missIdx) {
		for _, k := range keys {
			r.memo.insert(k)
		}
		return -1, true
	}
	return r.CheckBatchSequential(envs)
}

// batchVerifyCached evaluates the cofactored batch equation over
// envs[idx...] using the registry's cached per-signer tables: the
// signature R points (seen once) are the only per-batch decompressions
// and on-the-fly tables, while each signer's public-key term reuses the
// precomputed width-8 table. Callers must have range-checked Signer and
// Sig length for every selected envelope.
func (r *Registry) batchVerifyCached(envs []Envelope, idx []int) bool {
	n := len(idx)
	zraw := make([]byte, 16*n)
	if _, err := rand.Read(zraw); err != nil {
		return false // no randomness, no probabilistic acceptance
	}
	zs := make([]*edwards.Scalar, n)
	Rs := make([]*edwards.Point, n)
	zks := make([]*edwards.Scalar, n)
	tabs := make([]*edwards.AffineNafTable, n)
	zsSum := edwards.NewScalar()
	var zbuf [32]byte
	h := sha512.New()
	for j, i := range idx {
		e := &envs[i]
		R, err := new(edwards.Point).SetBytes(e.Sig[:32])
		if err != nil {
			return false
		}
		s, err := edwards.NewScalar().SetCanonicalBytes(e.Sig[32:])
		if err != nil {
			return false
		}
		tabs[j] = r.signers[e.Signer].batchTable()
		copy(zbuf[:16], zraw[16*j:])
		z, err := edwards.NewScalar().SetCanonicalBytes(zbuf[:])
		if err != nil {
			return false // unreachable: top 128 bits are zero
		}
		h.Reset()
		h.Write(e.Sig[:32])
		h.Write(r.pubs[e.Signer])
		h.Write(e.Body)
		k, err := edwards.NewScalar().SetUniformBytes(h.Sum(nil))
		if err != nil {
			return false // unreachable: input is exactly 64 bytes
		}
		zsSum.MultiplyAdd(z, s, zsSum)
		zs[j], Rs[j], zks[j] = z, R, edwards.NewScalar().Multiply(z, k)
	}
	p := new(edwards.Point).VarTimeBatchMult(edwards.NewScalar().Negate(zsSum), zs, Rs, zks, tabs)
	return p.MultByCofactor(p).Equal(edwards.NewIdentityPoint()) == 1
}

// CheckBatchSequential is the frozen differential baseline: the
// per-envelope memoized sweep CheckBatch used to be, stopping at the
// first failure. Differential tests pin CheckBatch against it, and
// MeasureBatchSpeedup times the two paths for the bench bundle.
func (r *Registry) CheckBatchSequential(envs []Envelope) (int, bool) {
	for i := range envs {
		if !r.Check(envs[i]) {
			return i, false
		}
	}
	return -1, true
}
