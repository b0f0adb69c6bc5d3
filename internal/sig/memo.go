package sig

// Verification and seal memoization — the crypto fast path.
//
// Soundness. ed25519 is deterministic in both directions: for a fixed
// (public key, message, signature) triple, Verify always returns the same
// boolean, and for a fixed (private key, message) pair, Sign always
// returns the same signature. Memoizing these pure functions therefore
// cannot change any result — only the host CPU time spent recomputing
// them. Two further rules keep the memo sound under adversarial input:
//
//   - Positive entries only. A cache hit asserts "this exact triple
//     verified before". Failures are never cached, so garbage signatures
//     pay the full verification price and leave no trace. Statements a
//     Byzantine node *validly signs* (e.g. its endorsement over a bogus
//     blob) can enter the memo — that is useful, not harmful: the same
//     flood frame is checked by every neighbor, and the later checks hit.
//     What bounds the exposure is the shard cap, and what makes eviction
//     safe is that entries only ever accelerate: a flooder churning a
//     shard to its cap costs recomputation time, never correctness, and
//     the per-neighbor rate limit (§4.3) bounds how fast it can churn.
//
//   - Full-triple keys. The key binds the public key, the SHA-256 digest
//     of the message, and the complete 64-byte signature, so a hit can
//     never be confused across signers, messages, or (malleable) signature
//     encodings. Since keys are derived from the registry seed, two
//     registries built from the same seed share keys on purpose: that is
//     what lets campaign trials replaying the same seeded deployment reuse
//     each other's verification work.
//
// The memos are sharded maps behind per-shard RW mutexes — safe for
// concurrent campaign workers — and bounded: a shard that reaches its cap
// is cleared (sound, because entries only ever accelerate).

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	memoShards     = 64 // power of two; shard = first digest byte & mask
	memoShardMask  = memoShards - 1
	verifyShardCap = 2048 // ~128B/key -> <=16MiB worst case across shards
	sealShardCap   = 256  // entries carry payload bytes; keep small
)

// verifyKey is the full verification triple: signer public key, message
// digest, signature.
type verifyKey struct {
	pub [ed25519.PublicKeySize]byte
	dig [sha256.Size]byte
	sig [ed25519.SignatureSize]byte
}

type verifyShard struct {
	mu sync.RWMutex
	m  map[verifyKey]struct{}
}

// VerifyMemo is a sharded, concurrency-safe, positive-entry-only cache of
// successful ed25519 verifications. A Registry consults it on every
// Verify (Registry.UseMemos attaches one). The zero value is not usable;
// call NewVerifyMemo.
type VerifyMemo struct {
	shards [memoShards]verifyShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewVerifyMemo returns an empty memo.
func NewVerifyMemo() *VerifyMemo {
	m := &VerifyMemo{}
	for i := range m.shards {
		m.shards[i].m = make(map[verifyKey]struct{})
	}
	return m
}

// verify checks sig over msg under pub, consulting the memo first: build
// the key, look it up, and on a miss run check and insert the triple if
// it passed. check must return crypto/ed25519.Verify's verdict on (pub,
// msg, sig), so the result is identical to it for every input (see the
// soundness argument above); only repeated successful verifications get
// cheaper. Callers must have length-checked pub and sig.
func (m *VerifyMemo) verify(pub ed25519.PublicKey, msg, sig []byte, check func() bool) bool {
	k := makeVerifyKey(pub, msg, sig)
	if m.lookup(k) {
		return true
	}
	if !check() {
		return false // never cached: positive entries only
	}
	m.insert(k)
	return true
}

// Stats returns the cumulative hit/miss counters.
func (m *VerifyMemo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// makeVerifyKey builds the full-triple memo key for (pub, msg, sig).
// Callers must have length-checked pub and sig.
func makeVerifyKey(pub ed25519.PublicKey, msg, sig []byte) verifyKey {
	var k verifyKey
	copy(k.pub[:], pub)
	k.dig = sha256.Sum256(msg)
	copy(k.sig[:], sig)
	return k
}

// lookup reports whether the triple is already cached, without verifying
// on a miss. The batch path (batch.go) uses it to split a batch into
// memo hits and the miss set one batch equation covers.
func (m *VerifyMemo) lookup(k verifyKey) bool {
	sh := &m.shards[k.dig[0]&memoShardMask]
	sh.mu.RLock()
	_, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return ok
}

// insert records a triple that verified outside the memo (as part of a
// successful batch equation). The positive-entries-only rule carries
// over: only accepted triples are ever inserted.
func (m *VerifyMemo) insert(k verifyKey) {
	sh := &m.shards[k.dig[0]&memoShardMask]
	sh.mu.Lock()
	if len(sh.m) >= verifyShardCap {
		clear(sh.m)
	}
	sh.m[k] = struct{}{}
	sh.mu.Unlock()
}

// sealKey identifies a deterministic seal: signer public key, payload
// prefix byte, and message digest.
type sealKey struct {
	pub    [ed25519.PublicKeySize]byte
	prefix byte
	dig    [sha256.Size]byte
}

type sealShard struct {
	mu sync.RWMutex
	m  map[sealKey][]byte
}

// SealMemo caches the fully framed wire bytes of deterministic seals:
// prefix || Envelope{signer, body, Sign(body)}.Encode(). Because ed25519
// signing is deterministic, re-sealing an identical body always yields
// identical bytes, so re-sent payloads (evidence re-floods, bogus-flood
// blobs, replayed campaign trials) become a shared-slice lookup. Callers
// must treat returned slices as immutable — they are shared.
type SealMemo struct {
	shards [memoShards]sealShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSealMemo returns an empty memo.
func NewSealMemo() *SealMemo {
	m := &SealMemo{}
	for i := range m.shards {
		m.shards[i].m = make(map[sealKey][]byte)
	}
	return m
}

// payload consults the memo for the framed seal of body by (priv, pub);
// on a miss it signs, frames, and caches. The returned slice is shared
// and must not be mutated.
func (m *SealMemo) payload(priv ed25519.PrivateKey, pub ed25519.PublicKey, signer uint32, prefix byte, body []byte) []byte {
	var k sealKey
	copy(k.pub[:], pub)
	k.prefix = prefix
	k.dig = sha256.Sum256(body)
	sh := &m.shards[k.dig[0]&memoShardMask]
	sh.mu.RLock()
	p, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return p
	}
	m.misses.Add(1)
	p = framedSeal(priv, signer, prefix, body)
	sh.mu.Lock()
	if len(sh.m) >= sealShardCap {
		clear(sh.m)
	}
	sh.m[k] = p
	sh.mu.Unlock()
	return p
}

// framedSeal builds prefix || Envelope.Encode() in one exact-size
// allocation. It shares Envelope.AppendTo's length invariant: a body
// longer than MaxBody cannot round-trip and panics instead of
// truncating.
func framedSeal(priv ed25519.PrivateKey, signer uint32, prefix byte, body []byte) []byte {
	if len(body) > MaxBody {
		panic(fmt.Sprintf("sig: invariant MaxBody violated: body %d > %d", len(body), MaxBody))
	}
	p := make([]byte, 1+8+len(body)+ed25519.SignatureSize)
	p[0] = prefix
	binary.LittleEndian.PutUint32(p[1:], signer)
	binary.LittleEndian.PutUint32(p[5:], uint32(len(body)))
	copy(p[9:], body)
	copy(p[9+len(body):], ed25519.Sign(priv, body))
	return p
}

// Stats returns the cumulative hit/miss counters.
func (m *SealMemo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// --- process-shared instances ----------------------------------------------

var (
	sharedVerify = NewVerifyMemo()
	sharedSeal   = NewSealMemo()
	memosEnabled atomic.Bool
)

func init() { memosEnabled.Store(true) }

// SharedVerifyMemo returns the process-wide verification memo every
// registry uses by default. Campaign workers running trials built from
// the same seed share verification work through it.
func SharedVerifyMemo() *VerifyMemo { return sharedVerify }

// SharedSealMemo returns the process-wide seal memo (see SharedVerifyMemo).
func SharedSealMemo() *SealMemo { return sharedSeal }

// ResetMemos drops every entry from the shared memos (the hit/miss
// counters keep accumulating). It is a measurement hook — timed runs
// that must start cold (e.g. the serial vs workers=4 pair in the bench
// bundle) call it so one run's warmth cannot leak into the next — and is
// not safe to call concurrently with a benchmark being timed.
func ResetMemos() {
	for i := range sharedVerify.shards {
		sh := &sharedVerify.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
	for i := range sharedSeal.shards {
		sh := &sharedSeal.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// SetMemos enables or disables memo attachment for subsequently
// constructed registries and returns the previous setting. Existing
// registries are unaffected. This is a measurement hook (cached vs
// uncached campaign walls in BENCH_campaign.json), not a tuning knob:
// results are identical either way.
func SetMemos(enabled bool) bool { return memosEnabled.Swap(enabled) }

// MemoStats sums the shared memos' counters: verification and seal
// hit/miss totals since process start.
func MemoStats() (verifyHits, verifyMisses, sealHits, sealMisses uint64) {
	verifyHits, verifyMisses = sharedVerify.Stats()
	sealHits, sealMisses = sharedSeal.Stats()
	return verifyHits, verifyMisses, sealHits, sealMisses
}
