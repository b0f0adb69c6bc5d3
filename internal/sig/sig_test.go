package sig

import (
	"bytes"
	"testing"
	"testing/quick"

	"btr/internal/network"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	r := NewRegistry(1, 4)
	msg := []byte("pressure=42.1 period=7")
	s := r.Sign(2, msg)
	if !r.Verify(2, msg, s) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyWrongSigner(t *testing.T) {
	r := NewRegistry(1, 4)
	msg := []byte("m")
	s := r.Sign(2, msg)
	if r.Verify(3, msg, s) {
		t.Error("signature verified under wrong signer")
	}
}

func TestVerifyTamperedMessage(t *testing.T) {
	r := NewRegistry(1, 4)
	msg := []byte("valve=open")
	s := r.Sign(0, msg)
	msg[0] ^= 0xff
	if r.Verify(0, msg, s) {
		t.Error("tampered message verified")
	}
}

func TestVerifyGarbageSignature(t *testing.T) {
	r := NewRegistry(1, 2)
	if r.Verify(0, []byte("m"), make([]byte, SignatureSize)) {
		t.Error("zero signature verified")
	}
	if r.Verify(0, []byte("m"), []byte("short")) {
		t.Error("short signature verified")
	}
	if r.Verify(-1, []byte("m"), make([]byte, SignatureSize)) {
		t.Error("negative signer verified")
	}
	if r.Verify(99, []byte("m"), make([]byte, SignatureSize)) {
		t.Error("out-of-range signer verified")
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewRegistry(42, 3)
	b := NewRegistry(42, 3)
	msg := []byte("deterministic")
	if !bytes.Equal(a.Sign(1, msg), b.Sign(1, msg)) {
		t.Error("same seed produced different keys")
	}
	c := NewRegistry(43, 3)
	if bytes.Equal(a.Sign(1, msg), c.Sign(1, msg)) {
		t.Error("different seeds produced identical keys")
	}
}

func TestCrossRegistryRejection(t *testing.T) {
	// A signature from a different key universe must not verify: models
	// that an adversary cannot mint keys for identities it doesn't hold.
	a := NewRegistry(1, 3)
	b := NewRegistry(2, 3)
	msg := []byte("m")
	if a.Verify(0, msg, b.Sign(0, msg)) {
		t.Error("foreign signature verified")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	r := NewRegistry(1, 3)
	e := r.Seal(1, []byte("body bytes"))
	if !r.Check(e) {
		t.Fatal("sealed envelope failed check")
	}
	enc := e.Encode()
	d, err := DecodeEnvelope(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Signer != 1 || !bytes.Equal(d.Body, e.Body) || !bytes.Equal(d.Sig, e.Sig) {
		t.Error("decoded envelope differs")
	}
	if !r.Check(d) {
		t.Error("decoded envelope failed check")
	}
}

func TestEnvelopeDecodeRejectsMalformed(t *testing.T) {
	r := NewRegistry(1, 2)
	enc := r.Seal(0, []byte("x")).Encode()
	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:4],
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeEnvelope(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

func TestEnvelopePropertyRoundTrip(t *testing.T) {
	r := NewRegistry(9, 5)
	f := func(body []byte, signer uint8) bool {
		id := network.NodeID(int(signer) % 5)
		e := r.Seal(id, body)
		d, err := DecodeEnvelope(e.Encode())
		if err != nil {
			return false
		}
		return d.Signer == id && bytes.Equal(d.Body, body) && r.Check(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEquivocationIsPossibleAndDetectable(t *testing.T) {
	// A Byzantine node CAN sign two conflicting statements — that is what
	// commission evidence is built from. Both must verify individually.
	r := NewRegistry(1, 2)
	e1 := r.Seal(0, []byte("out=1 period=5"))
	e2 := r.Seal(0, []byte("out=2 period=5"))
	if !r.Check(e1) || !r.Check(e2) {
		t.Fatal("equivocating signatures should each verify")
	}
	if bytes.Equal(e1.Body, e2.Body) {
		t.Fatal("test setup wrong")
	}
}

func BenchmarkSign(b *testing.B) {
	r := NewRegistry(1, 1)
	msg := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Sign(0, msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	r := NewRegistry(1, 1)
	msg := make([]byte, 128)
	s := r.Sign(0, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Verify(0, msg, s)
	}
}

func TestOperatorSignVerify(t *testing.T) {
	r := NewRegistry(1, 4)
	msg := []byte("epoch 3: members 0,1,2,5")
	s := r.OperatorSign(msg)
	if !r.OperatorVerify(msg, s) {
		t.Fatal("valid operator signature rejected")
	}
	if r.OperatorVerify(append([]byte("x"), msg...), s) {
		t.Fatal("operator signature accepted over a different message")
	}
	if r.OperatorVerify(msg, s[:16]) {
		t.Fatal("truncated operator signature accepted")
	}
	// No node key verifies as the operator: a compromised node must not
	// be able to forge reconfigurations.
	for id := network.NodeID(0); int(id) < 4; id++ {
		if r.OperatorVerify(msg, r.Sign(id, msg)) {
			t.Fatalf("node %d signature accepted as operator", id)
		}
	}
}

func TestOperatorKeyDeterministicAndNodeKeysUnchanged(t *testing.T) {
	a, b := NewRegistry(7, 3), NewRegistry(7, 3)
	msg := []byte("m")
	if !b.OperatorVerify(msg, a.OperatorSign(msg)) {
		t.Fatal("same-seed registries derived different operator keys")
	}
	// A different node count shifts the rng draws, so the operator key
	// differs — but node keys for shared ids must match registries built
	// before the operator key existed (derived strictly after them).
	c := NewRegistry(7, 5)
	if !c.Verify(2, msg, a.Sign(2, msg)) {
		t.Fatal("node keys depend on registry size")
	}
}
