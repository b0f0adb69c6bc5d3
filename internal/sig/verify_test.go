package sig

import (
	"crypto/ed25519"
	"crypto/sha512"
	"math/big"
	"sync"
	"testing"

	edwards "btr/internal/sig/edwards25519"
)

// craftSig returns R ‖ S where S = k·a mod L for node id's secret scalar
// a and k = SHA-512(R ‖ A ‖ msg) mod L. Then [S]B − [k]A = identity, so
// the signature satisfies the cofactored equation for any small-order R
// and the cofactorless one only when R encodes the identity canonically.
func craftSig(t testing.TB, r *Registry, id int, R, msg []byte) []byte {
	t.Helper()
	h := sha512.Sum512(r.privs[id].Seed())
	a, err := edwards.NewScalar().SetBytesWithClamping(h[:32])
	if err != nil {
		t.Fatal(err)
	}
	kh := sha512.New()
	kh.Write(R)
	kh.Write(r.pubs[id])
	kh.Write(msg)
	k, err := edwards.NewScalar().SetUniformBytes(kh.Sum(nil))
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), R...), edwards.NewScalar().Multiply(k, a).Bytes()...)
}

// le32 returns a 32-byte little-endian encoding: first, then 30 copies
// of fill, then last.
func le32(first, fill, last byte) []byte {
	b := make([]byte, 32)
	b[0], b[31] = first, last
	for i := 1; i < 31; i++ {
		b[i] = fill
	}
	return b
}

// verifySeeds is the fuzz corpus: every class of input on which a
// fixed-base verifier could plausibly part ways with the stdlib.
func verifySeeds(t testing.TB, r *Registry) (msgs, sigs [][]byte) {
	add := func(m, s []byte) { msgs, sigs = append(msgs, m), append(sigs, s) }
	msg := []byte("period 7 output of task 2")
	valid := r.Sign(0, msg)

	// Valid signatures, under a node key and the operator key; every
	// other key in the registry sees them as the wrong signer.
	add(msg, valid)
	add(msg, r.OperatorSign(msg))
	add(nil, r.Sign(1, nil))

	// Single-bit flips in R, in S, and in the message.
	for _, bit := range []int{0, 7, 100, 255, 256, 300, 500, 503, 511} {
		s := append([]byte(nil), valid...)
		s[bit/8] ^= 1 << (bit % 8)
		add(msg, s)
	}
	add([]byte("period 7 output of task 3"), valid)

	// S ≥ L: S + L passes the sig[63] check but is not canonical.
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	sBE := make([]byte, 32)
	for i := range sBE {
		sBE[i] = valid[63-i]
	}
	sl := new(big.Int).Add(new(big.Int).SetBytes(sBE), l).FillBytes(make([]byte, 32))
	sPlusL := append([]byte(nil), valid[:32]...)
	for i := 31; i >= 0; i-- {
		sPlusL = append(sPlusL, sl[i])
	}
	add(msg, sPlusL)

	// The three high bits of sig[63], each set on its own.
	for _, hi := range []byte{0x20, 0x40, 0x80} {
		s := append([]byte(nil), valid...)
		s[63] |= hi
		add(msg, s)
	}

	identity := le32(1, 0, 0)
	order2 := le32(0xec, 0xff, 0x7f) // y = p−1: the point (0, −1)
	order4 := le32(0, 0, 0)          // y = 0
	order8 := []byte{
		0x26, 0xe8, 0x95, 0x8f, 0xc2, 0xb2, 0x27, 0xb0,
		0x45, 0xc3, 0xf4, 0x89, 0xf2, 0xef, 0x98, 0xf0,
		0xd5, 0xdf, 0xac, 0x05, 0xd3, 0xc6, 0x33, 0x39,
		0xb1, 0x38, 0x02, 0x88, 0x6d, 0x53, 0xfc, 0x05,
	}
	identityNonCanon := le32(0xee, 0xff, 0x7f) // y = p+1 ≡ 1
	yIsP := le32(0xed, 0xff, 0x7f)             // y = p ≡ 0
	for _, R := range [][]byte{identity, order2, order4, order8, identityNonCanon, yIsP} {
		add(msg, craftSig(t, r, 0, R, msg))
		add(msg, append(append([]byte(nil), R...), valid[32:]...))
	}

	// Degenerate shapes: all zero, and the wrong length.
	add(msg, make([]byte, 64))
	add(msg, valid[:63])
	return msgs, sigs
}

// FuzzVerifyMatchesStdlib asserts that the fixed-base verifier and
// crypto/ed25519.Verify return the same verdict for every key of the
// registry on every input.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	r := NewRegistry(0xf022, 3)
	msgs, sigs := verifySeeds(f, r)
	for i := range msgs {
		f.Add(msgs[i], sigs[i])
	}
	f.Fuzz(func(t *testing.T, msg, sig []byte) {
		for slot := range r.signers {
			s := &r.signers[slot]
			want := ed25519.Verify(s.pub, msg, sig)
			if got := s.verify(msg, sig); got != want {
				t.Fatalf("slot %d: fixed-base verify = %v, crypto/ed25519.Verify = %v (msg %x, sig %x)", slot, got, want, msg, sig)
			}
		}
	})
}

// TestVerifySeedsExerciseBothVerdicts keeps the corpus honest: it must
// hold inputs each verifier accepts (including the crafted identity-R
// signature) and inputs it rejects, or the differential proves little.
func TestVerifySeedsExerciseBothVerdicts(t *testing.T) {
	r := NewRegistry(0xf022, 3)
	msgs, sigs := verifySeeds(t, r)
	accepted := 0
	for i := range msgs {
		if ed25519.Verify(r.pubs[0], msgs[i], sigs[i]) {
			accepted++
		}
	}
	if accepted < 2 || accepted == len(msgs) {
		t.Fatalf("node 0 accepts %d of %d seeds; want a valid and a crafted acceptance plus rejections", accepted, len(msgs))
	}
	crafted := craftSig(t, r, 0, le32(1, 0, 0), []byte("m"))
	if !ed25519.Verify(r.pubs[0], []byte("m"), crafted) || !r.Verify(0, []byte("m"), crafted) {
		t.Fatal("the crafted identity-R signature must verify under both paths")
	}
}

// TestConcurrentFirstVerifyBuildsOneTable races many goroutines through
// the first verify of one signer and of the operator, as the live
// pre-verifier and executor goroutines do. All must agree, and each slot
// must end up with a single table that every goroutine used.
func TestConcurrentFirstVerifyBuildsOneTable(t *testing.T) {
	r := NewRegistry(0x7ace, 4)
	r.UseMemos(nil, nil) // every call is a miss
	msg := []byte("first use")
	good := r.Sign(2, msg)
	bad := append([]byte(nil), good...)
	bad[5] ^= 0x10
	opGood := r.OperatorSign(msg)

	const workers = 16
	type seen struct {
		verdicts [3]bool
		node, op *edwards.FixedBaseTable
	}
	got := make([]seen, workers)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-gate
			got[w].verdicts = [3]bool{r.Verify(2, msg, good), r.Verify(2, msg, bad), r.OperatorVerify(msg, opGood)}
			got[w].node, got[w].op = r.signers[2].fixed.v.Load(), r.signers[len(r.pubs)].fixed.v.Load()
		}(w)
	}
	close(gate)
	wg.Wait()
	for w, s := range got {
		if s.verdicts != [3]bool{true, false, true} {
			t.Fatalf("worker %d verdicts %v, want [true false true]", w, s.verdicts)
		}
		if s.node == nil || s.node != got[0].node || s.op == nil || s.op != got[0].op {
			t.Fatalf("worker %d used a different table than worker 0", w)
		}
	}
	if n := r.TablesBuilt(); n != 2 {
		t.Fatalf("TablesBuilt = %d after racing one node and the operator, want 2", n)
	}
}

// TestTablesAreLazy pins that a registry builds no table up front, that
// a memo hit builds none, that each miss builds only its signer's
// fixed-base table, and that a batch builds only its signers' batch
// tables.
func TestTablesAreLazy(t *testing.T) {
	msg := []byte("m")
	warm := NewRegistry(0x1a2, 4)
	warm.UseMemos(NewVerifyMemo(), nil)
	sig1 := warm.Sign(1, msg)
	if !warm.Verify(1, msg, sig1) {
		t.Fatal("valid signature rejected")
	}

	r := NewRegistry(0x1a2, 4)
	if n := r.TablesBuilt(); n != 0 {
		t.Fatalf("NewRegistry built %d tables, want 0", n)
	}
	r.UseMemos(warm.memo, nil)
	if !r.Verify(1, msg, sig1) {
		t.Fatal("memo hit rejected a valid signature")
	}
	if n := r.TablesBuilt(); n != 0 {
		t.Fatalf("a memo hit built %d tables, want 0", n)
	}
	if !r.Verify(3, msg, r.Sign(3, msg)) {
		t.Fatal("valid signature rejected on a miss")
	}
	if n := r.TablesBuilt(); n != 1 {
		t.Fatalf("one miss built %d tables, want 1", n)
	}
	if !r.OperatorVerify(msg, r.OperatorSign(msg)) {
		t.Fatal("valid operator signature rejected")
	}
	if n := r.TablesBuilt(); n != 2 {
		t.Fatalf("after the operator's miss TablesBuilt = %d, want 2", n)
	}
	envs := []Envelope{r.Seal(0, msg), r.Seal(3, msg)}
	if !r.batchVerifyCached(envs, []int{0, 1}) {
		t.Fatal("batch rejected valid envelopes")
	}
	if n := r.TablesBuilt(); n != 4 {
		t.Fatalf("a batch over two signers left TablesBuilt = %d, want 4 (one batch table each)", n)
	}
}

// BenchmarkFixedKeyBuild is the one-off cost a signer pays on its first
// verify miss: decompressing its key and building the fixed-base table.
func BenchmarkFixedKeyBuild(b *testing.B) {
	r := NewRegistry(0xb1d, 1)
	msg := []byte("m")
	sig := r.Sign(0, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := signer{pub: r.pubs[0]}
		if !s.verify(msg, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}

// BenchmarkVerifyMiss is the memo-miss path Registry.Verify takes, with
// the signer's table already built. Compare with BenchmarkVerifyUncached,
// the crypto/ed25519.Verify baseline over the same envelopes.
func BenchmarkVerifyMiss(b *testing.B) {
	r, envs := benchEnvelopes(64)
	r.UseMemos(nil, nil)
	for _, e := range envs { // build the tables
		r.Check(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Check(envs[i%len(envs)]) {
			b.Fatal("valid envelope rejected")
		}
	}
}
