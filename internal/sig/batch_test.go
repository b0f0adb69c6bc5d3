package sig

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"btr/internal/network"
)

const batchTestNodes = 8

func batchTestRegistry() *Registry {
	r := NewRegistry(0xba7c4, batchTestNodes)
	r.UseMemos(NewVerifyMemo(), nil) // isolated memo: no shared-state bleed
	return r
}

func validBatch(r *Registry, n int, tag string) []Envelope {
	envs := make([]Envelope, n)
	for i := range envs {
		envs[i] = r.Seal(network.NodeID(i%batchTestNodes), []byte(fmt.Sprintf("%s record %d", tag, i)))
	}
	return envs
}

func TestBatchVerifyAcceptsValidRejectsInvalid(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 20, "valid")
	pubs := make([]ed25519.PublicKey, len(envs))
	msgs := make([][]byte, len(envs))
	sigs := make([][]byte, len(envs))
	for i, e := range envs {
		pubs[i], msgs[i], sigs[i] = r.pubs[e.Signer], e.Body, e.Sig
	}
	if !BatchVerify(pubs, msgs, sigs) {
		t.Fatalf("BatchVerify rejected an all-valid batch")
	}
	if !BatchVerify(nil, nil, nil) {
		t.Fatalf("BatchVerify rejected the empty batch")
	}
	// Any single corrupted signature must sink the whole batch.
	bad := append([]byte(nil), sigs[7]...)
	bad[3] ^= 0x40
	sigs[7] = bad
	if BatchVerify(pubs, msgs, sigs) {
		t.Fatalf("BatchVerify accepted a batch with one corrupted signature")
	}
	sigs[7] = envs[7].Sig
	// Mismatched slice lengths are malformed, not a panic.
	if BatchVerify(pubs[:3], msgs, sigs) {
		t.Fatalf("BatchVerify accepted mismatched slice lengths")
	}
}

// corruptBatch applies one of the adversarial corruption classes the
// satellite names — corrupted signature bits, wrong signer attribution,
// truncated message, truncated signature — to envelope i of a valid
// batch. Every class is reachable by an adversary rewriting flood
// frames, and on every one of them the batch path must agree with the
// sequential baseline.
func corruptBatch(envs []Envelope, i int, class uint8, bit uint16) {
	e := &envs[i]
	switch class % 4 {
	case 0: // flip a signature bit (if an earlier corruption left any)
		if len(e.Sig) > 0 {
			s := append([]byte(nil), e.Sig...)
			s[int(bit)%len(s)] ^= 1 << (bit % 8)
			e.Sig = s
		}
	case 1: // attribute to a different (real) signer
		e.Signer = (e.Signer + 1 + network.NodeID(bit)%(batchTestNodes-1)) % batchTestNodes
	case 2: // truncate the message
		if len(e.Body) > 0 {
			e.Body = e.Body[:int(bit)%len(e.Body)]
		}
	case 3: // truncate the signature
		if len(e.Sig) > 0 {
			e.Sig = e.Sig[:int(bit)%len(e.Sig)]
		}
	}
}

// TestQuickBatchEquivalentToSequential is the differential property: on
// randomly corrupted batches (mixed valid/invalid, every corruption
// class, random positions), CheckBatch and the frozen sequential
// baseline return identical (index, ok) — and both agree with a
// memo-free sequential sweep, so the memo priming the batch path
// performs is invisible to results.
func TestQuickBatchEquivalentToSequential(t *testing.T) {
	property := func(n uint8, corrupt []uint32) bool {
		size := 1 + int(n)%48
		fast := batchTestRegistry()
		slow := batchTestRegistry()
		cold := batchTestRegistry()
		cold.UseMemos(nil, nil)
		envs := validBatch(fast, size, "quick")
		for _, c := range corrupt {
			corruptBatch(envs, int(c>>16)%size, uint8(c>>8), uint16(c))
		}
		fi, fok := fast.CheckBatch(envs)
		si, sok := slow.CheckBatchSequential(envs)
		ci, cok := cold.CheckBatchSequential(envs)
		if fi != si || fok != sok || fi != ci || fok != cok {
			t.Logf("size=%d corrupt=%v: batch=(%d,%v) sequential=(%d,%v) uncached=(%d,%v)",
				size, corrupt, fi, fok, si, sok, ci, cok)
			return false
		}
		// Re-running against the now-primed memo must not change the verdict.
		fi2, fok2 := fast.CheckBatch(envs)
		return fi2 == fi && fok2 == fok
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckBatchPrimesMemo(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 24, "prime")
	if i, ok := r.CheckBatch(envs); !ok {
		t.Fatalf("CheckBatch rejected valid batch at %d", i)
	}
	hits0, _ := r.memo.Stats()
	for _, e := range envs {
		if !r.Check(e) {
			t.Fatalf("memoized Check rejected a batch-verified envelope")
		}
	}
	hits, _ := r.memo.Stats()
	if hits-hits0 != uint64(len(envs)) {
		t.Fatalf("batch verification did not prime the memo: %d hits for %d envelopes", hits-hits0, len(envs))
	}
}

func TestCheckBatchLocatesFirstCulprit(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 24, "culprit")
	for _, idx := range []int{0, 11, 23} {
		bad := make([]Envelope, len(envs))
		copy(bad, envs)
		e := bad[idx]
		s := append([]byte(nil), e.Sig...)
		s[0] ^= 1
		bad[idx].Sig = s
		if i, ok := r.CheckBatch(bad); ok || i != idx {
			t.Fatalf("CheckBatch(bad@%d) = (%d, %v), want (%d, false)", idx, i, ok, idx)
		}
	}
}

func TestCheckBatchOutOfRangeSigner(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 8, "range")
	envs[5].Signer = batchTestNodes + 3
	if i, ok := r.CheckBatch(envs); ok || i != 5 {
		t.Fatalf("CheckBatch with out-of-range signer = (%d, %v), want (5, false)", i, ok)
	}
}

// TestConcurrentBatchIngest is the -race stress: many goroutines batch-
// verifying overlapping envelope sets against one shared memo, mixed
// with per-envelope Check calls — the shape of concurrent flood ingest
// on live transports (lane workers pre-verify while the executor
// re-checks through the memo).
func TestConcurrentBatchIngest(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 64, "stress")
	poison := make([]Envelope, len(envs))
	copy(poison, envs)
	s := append([]byte(nil), poison[31].Sig...)
	s[10] ^= 4
	poison[31].Sig = s

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 30; it++ {
				lo := rng.Intn(32)
				hi := lo + 8 + rng.Intn(24)
				if i, ok := r.CheckBatch(envs[lo:hi]); !ok {
					t.Errorf("goroutine %d: valid slice [%d:%d) rejected at %d", g, lo, hi, i)
					return
				}
				if i, ok := r.CheckBatch(poison[lo:hi]); 31 >= lo && 31 < hi {
					if ok || i != 31-lo {
						t.Errorf("goroutine %d: poisoned slice [%d:%d) = (%d,%v)", g, lo, hi, i, ok)
						return
					}
				} else if !ok {
					t.Errorf("goroutine %d: clean poison slice [%d:%d) rejected at %d", g, lo, hi, i)
					return
				}
				if !r.Check(envs[rng.Intn(len(envs))]) {
					t.Errorf("goroutine %d: concurrent Check rejected valid envelope", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMeasureBatchSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	b, s := MeasureBatchSpeedup(16)
	if b <= 0 || s <= 0 {
		t.Fatalf("MeasureBatchSpeedup returned non-positive timings: batch=%v sequential=%v", b, s)
	}
	t.Logf("batch=%.0f ns/op sequential=%.0f ns/op speedup=%.2fx", b, s, s/b)
}

func BenchmarkCheckBatch16(b *testing.B)           { benchCheckBatch(b, 16, batchPath) }
func BenchmarkCheckBatch64(b *testing.B)           { benchCheckBatch(b, 64, batchPath) }
func BenchmarkCheckBatchSequential16(b *testing.B) { benchCheckBatch(b, 16, stdlibPath) }
func BenchmarkCheckBatchSequential64(b *testing.B) { benchCheckBatch(b, 64, stdlibPath) }

// BenchmarkCheckBatchFixedSequential16/64 time the fallback CheckBatch
// really takes, CheckBatchSequential, with the memo off so every check
// is a fixed-base miss: the margin the batch equation keeps over it.
func BenchmarkCheckBatchFixedSequential16(b *testing.B) { benchCheckBatch(b, 16, fixedPath) }
func BenchmarkCheckBatchFixedSequential64(b *testing.B) { benchCheckBatch(b, 64, fixedPath) }

// benchPath is the verification path benchCheckBatch times.
type benchPath int

const (
	batchPath  benchPath = iota // one cofactored batch equation
	stdlibPath                  // a crypto/ed25519.Verify loop
	fixedPath                   // CheckBatchSequential on the fixed-base path
)

func benchCheckBatch(b *testing.B, size int, path benchPath) {
	r := NewRegistry(0xbb, batchTestNodes)
	r.UseMemos(nil, nil)
	envs := make([]Envelope, size)
	idx := make([]int, size)
	for i := 0; i < size; i++ {
		envs[i] = r.Seal(network.NodeID(i%batchTestNodes), []byte(fmt.Sprintf("bench %d/%d", size, i)))
		idx[i] = i
	}
	// Warm the per-signer tables of both registry paths.
	if !r.batchVerifyCached(envs, idx) {
		b.Fatal("batch rejected")
	}
	if _, ok := r.CheckBatchSequential(envs); !ok {
		b.Fatal("sequential rejected")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch path {
		case batchPath:
			if !r.batchVerifyCached(envs, idx) {
				b.Fatal("batch rejected")
			}
		case stdlibPath:
			for j := 0; j < size; j++ {
				if !ed25519.Verify(r.pubs[envs[j].Signer], envs[j].Body, envs[j].Sig) {
					b.Fatal("sequential rejected")
				}
			}
		case fixedPath:
			if _, ok := r.CheckBatchSequential(envs); !ok {
				b.Fatal("sequential rejected")
			}
		}
	}
}
