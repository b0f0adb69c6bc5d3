package sig

// Fixed-base verification — the cost of a verify miss.
//
// crypto/ed25519.Verify decompresses the signer's key and evaluates
// [k](−A) + [S]B with a fresh table for −A and a 253-step doubling chain
// on every call. A deployment has only n+1 public keys, all known when
// the Registry is built, so each signer slot instead keeps a radix-16
// table of −A (edwards25519.FixedBaseTable), built on the signer's first
// memo miss, and a miss evaluates the same equation with about 128 mixed
// additions and 4 doublings (VarTimeDoubleFixedBaseMult).
//
// The verdict is crypto/ed25519.Verify's on every input, honest or not:
// verifyFixed makes the same checks in the same order — signature
// length, the three high bits of sig[63], canonical S, k = SHA-512(R ‖ A
// ‖ M) mod L — and accepts only if the canonical encoding of
// [k](−A) + [S]B equals sig[:32] byte for byte. The equation stays
// cofactorless, and R is never decompressed, so a non-canonical or
// small-order R fails exactly as it does in the stdlib.
// FuzzVerifyMatchesStdlib pins this differentially.

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"sync"
	"sync/atomic"

	edwards "btr/internal/sig/edwards25519"
)

// signer is one key's slot: the public key and the two verification
// tables derived from it, each built on first use — the fixed-base table
// of −A for every verify miss, and the width-8 NAF table of A for the
// batch equation (batch.go). Both are built from the slot's own key and
// every check against them hashes that same key, so a table can never be
// paired with another signer's key.
type signer struct {
	pub   ed25519.PublicKey
	fixed lazy[edwards.FixedBaseTable]
	naf   lazy[edwards.AffineNafTable]
}

// lazy is a table built at most once, on first use. once makes
// concurrent first users (the live pre-verifier and executor goroutines)
// wait for a single build instead of racing to duplicate it; v makes a
// built table observable to TablesBuilt without a lock. The table is
// read-only once stored.
type lazy[T any] struct {
	once sync.Once
	v    atomic.Pointer[T]
}

func (l *lazy[T]) get(build func() *T) *T {
	l.once.Do(func() { l.v.Store(build()) })
	return l.v.Load()
}

// point decompresses the slot's key.
func (s *signer) point() *edwards.Point {
	A, err := new(edwards.Point).SetBytes(s.pub)
	if err != nil {
		// Unreachable: registry keys come from ed25519.NewKeyFromSeed.
		panic("sig: invariant violated: registry key does not decompress")
	}
	return A
}

// verify reports whether sig is the slot's valid signature over msg,
// building the fixed-base table on first use.
func (s *signer) verify(msg, sig []byte) bool {
	negA := s.fixed.get(func() *edwards.FixedBaseTable {
		A := s.point()
		return edwards.NewFixedBaseTable(A.Negate(A))
	})
	return verifyFixed(s.pub, negA, msg, sig)
}

// batchTable returns the slot's NAF table for the batch equation,
// building it on first use.
func (s *signer) batchTable() *edwards.AffineNafTable {
	return s.naf.get(func() *edwards.AffineNafTable { return edwards.NewAffineNafTable(s.point()) })
}

// verifyFixed reports whether sig is pub's valid signature over msg,
// where negA is the fixed-base table of −pub. It makes every check
// crypto/ed25519.Verify makes and returns the same verdict.
func verifyFixed(pub ed25519.PublicKey, negA *edwards.FixedBaseTable, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(msg)
	var digest [sha512.Size]byte
	k, err := edwards.NewScalar().SetUniformBytes(h.Sum(digest[:0]))
	if err != nil {
		return false // unreachable: the digest is exactly 64 bytes
	}
	S, err := edwards.NewScalar().SetCanonicalBytes(sig[32:])
	if err != nil {
		return false
	}
	// [S]B = R + [k]A  <=>  [k](−A) + [S]B = R
	R := new(edwards.Point).VarTimeDoubleFixedBaseMult(k, negA, S)
	return bytes.Equal(sig[:32], R.Bytes())
}

// TablesBuilt reports how many per-signer tables (fixed-base and batch,
// over the node keys and the operator key) the registry holds. Tables
// are built on a signer's first use, so a fresh registry reports 0.
func (r *Registry) TablesBuilt() int {
	n := 0
	for i := range r.signers {
		s := &r.signers[i]
		if s.fixed.v.Load() != nil {
			n++
		}
		if s.naf.v.Load() != nil {
			n++
		}
	}
	return n
}
