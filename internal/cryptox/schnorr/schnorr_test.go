package schnorr

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func testGroup() *Group { return Group768() }

func genKey(t *testing.T) *PrivateKey {
	t.Helper()
	k, err := GenerateKey(testGroup(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGroupConstants(t *testing.T) {
	for _, g := range []*Group{Group768(), Group2048()} {
		t.Run(g.Name, func(t *testing.T) {
			if !g.P.ProbablyPrime(32) {
				t.Error("P is not prime")
			}
			if !g.Q.ProbablyPrime(32) {
				t.Error("Q is not prime")
			}
			// p = 2q+1
			want := new(big.Int).Add(new(big.Int).Lsh(g.Q, 1), big.NewInt(1))
			if g.P.Cmp(want) != 0 {
				t.Error("P != 2Q+1")
			}
			// generator has order q: g^q == 1 and g != 1
			if new(big.Int).Exp(g.G, g.Q, g.P).Cmp(big.NewInt(1)) != 0 {
				t.Error("G^Q != 1")
			}
		})
	}
}

func TestSignVerify(t *testing.T) {
	k := genKey(t)
	msg := []byte("register pseudonym 7")
	sig, err := k.Sign(msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(testGroup(), k.Y, msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	k := genKey(t)
	sig, _ := k.Sign([]byte("a"), rand.Reader)
	if err := Verify(testGroup(), k.Y, []byte("b"), sig); err == nil {
		t.Error("verified wrong message")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	k1, k2 := genKey(t), genKey(t)
	sig, _ := k1.Sign([]byte("m"), rand.Reader)
	if err := Verify(testGroup(), k2.Y, []byte("m"), sig); err == nil {
		t.Error("verified under wrong key")
	}
}

func TestVerifyRejectsMutatedSignature(t *testing.T) {
	k := genKey(t)
	msg := []byte("m")
	sig, _ := k.Sign(msg, rand.Reader)
	badE := &Signature{E: new(big.Int).Add(sig.E, big.NewInt(1)), S: sig.S}
	if sig.E.Cmp(new(big.Int).Sub(testGroup().Q, big.NewInt(1))) < 0 {
		if err := Verify(testGroup(), k.Y, msg, badE); err == nil {
			t.Error("verified mutated E")
		}
	}
	badS := &Signature{E: sig.E, S: new(big.Int).Add(sig.S, big.NewInt(1))}
	if err := Verify(testGroup(), k.Y, msg, badS); err == nil {
		t.Error("verified mutated S")
	}
}

func TestVerifyRejectsOutOfRangeScalars(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	sig, _ := k.Sign([]byte("m"), rand.Reader)
	huge := new(big.Int).Add(g.Q, big.NewInt(5))
	if err := Verify(g, k.Y, []byte("m"), &Signature{E: sig.E, S: huge}); err == nil {
		t.Error("accepted S >= Q")
	}
	if err := Verify(g, k.Y, []byte("m"), &Signature{E: huge, S: sig.S}); err == nil {
		t.Error("accepted E >= Q")
	}
	if err := Verify(g, k.Y, []byte("m"), nil); err == nil {
		t.Error("accepted nil signature")
	}
}

func TestValidatePublicKey(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	if err := g.ValidatePublicKey(k.Y); err != nil {
		t.Errorf("valid key rejected: %v", err)
	}
	bad := []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.P, big.NewInt(1)), // order-2 element
		new(big.Int).Set(g.P),
	}
	for i, y := range bad {
		if err := g.ValidatePublicKey(y); err == nil {
			t.Errorf("bad key %d accepted", i)
		}
	}
}

func TestSignatureCodec(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	sig, _ := k.Sign([]byte("codec"), rand.Reader)
	data := sig.Bytes(g)
	back, err := ParseSignature(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.E.Cmp(sig.E) != 0 || back.S.Cmp(sig.S) != 0 {
		t.Error("codec roundtrip mismatch")
	}
	if _, err := ParseSignature(g, data[:len(data)-1]); err == nil {
		t.Error("accepted truncated signature")
	}
}

func TestProofRoundtrip(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	ctx := []byte("provider-nonce-123|register")
	p, err := k.Prove(ctx, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(g, k.Y, ctx, p); err != nil {
		t.Fatalf("VerifyProof: %v", err)
	}
}

func TestProofContextBinding(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	p, _ := k.Prove([]byte("ctx-a"), rand.Reader)
	if err := VerifyProof(g, k.Y, []byte("ctx-b"), p); err == nil {
		t.Error("proof verified under different context (replayable)")
	}
}

func TestProofIsNotASignature(t *testing.T) {
	// Domain separation: a proof over context C must not verify as a
	// plain signature over C, and vice versa.
	g := testGroup()
	k := genKey(t)
	ctx := []byte("shared-bytes")
	p, _ := k.Prove(ctx, rand.Reader)
	if err := Verify(g, k.Y, ctx, &p.Sig); err == nil {
		t.Error("proof verified as signature over raw context")
	}
	sig, _ := k.Sign(ctx, rand.Reader)
	if err := VerifyProof(g, k.Y, ctx, &Proof{Sig: *sig}); err == nil {
		t.Error("signature verified as proof")
	}
}

func TestProofCodec(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	p, _ := k.Prove([]byte("c"), rand.Reader)
	back, err := ParseProof(g, p.Bytes(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProof(g, k.Y, []byte("c"), back); err != nil {
		t.Errorf("decoded proof invalid: %v", err)
	}
}

func TestNewPrivateKeyFromSecret(t *testing.T) {
	g := testGroup()
	secret := []byte("derived-by-hkdf-32-bytes-material")
	k1, err := NewPrivateKey(g, secret)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := NewPrivateKey(g, secret)
	if k1.X.Cmp(k2.X) != 0 || k1.Y.Cmp(k2.Y) != 0 {
		t.Error("NewPrivateKey not deterministic")
	}
	if err := g.ValidatePublicKey(k1.Y); err != nil {
		t.Errorf("derived key invalid: %v", err)
	}
	sig, _ := k1.Sign([]byte("m"), rand.Reader)
	if err := Verify(g, k1.Y, []byte("m"), sig); err != nil {
		t.Errorf("derived key cannot sign: %v", err)
	}
}

func TestFingerprintStable(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	a := g.Fingerprint(k.Y)
	b := g.Fingerprint(k.Y)
	if a != b {
		t.Error("fingerprint unstable")
	}
	k2 := genKey(t)
	if g.Fingerprint(k2.Y) == a {
		t.Error("fingerprint collision across keys")
	}
}

func TestPublicKeyEqual(t *testing.T) {
	k := genKey(t)
	if !k.PublicKey.Equal(PublicKey{Y: new(big.Int).Set(k.Y)}) {
		t.Error("equal keys reported unequal")
	}
	if k.PublicKey.Equal(PublicKey{Y: big.NewInt(3)}) {
		t.Error("unequal keys reported equal")
	}
	var empty PublicKey
	if k.PublicKey.Equal(empty) || !empty.Equal(PublicKey{}) {
		t.Error("nil-Y comparison wrong")
	}
}

// Property: signatures over random messages always verify, never verify
// under a perturbed message.
func TestQuickSignVerify(t *testing.T) {
	g := testGroup()
	k := genKey(t)
	cfg := &quick.Config{MaxCount: 20, Rand: mrand.New(mrand.NewSource(2))}
	f := func(msg []byte, flip uint8) bool {
		sig, err := k.Sign(msg, rand.Reader)
		if err != nil {
			return false
		}
		if Verify(g, k.Y, msg, sig) != nil {
			return false
		}
		mut := append(append([]byte(nil), msg...), flip)
		return Verify(g, k.Y, mut, sig) != nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: distinct derived secrets give distinct key pairs.
func TestQuickDerivedKeysDistinct(t *testing.T) {
	g := testGroup()
	cfg := &quick.Config{MaxCount: 25, Rand: mrand.New(mrand.NewSource(3))}
	f := func(a, b [16]byte) bool {
		ka, err1 := NewPrivateKey(g, a[:])
		kb, err2 := NewPrivateKey(g, b[:])
		if err1 != nil || err2 != nil {
			return false
		}
		if a == b {
			return ka.Y.Cmp(kb.Y) == 0
		}
		return ka.Y.Cmp(kb.Y) != 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestInvExpMatchesSubgroupForm: Verify's y^{-e} = (y^e)^{-1} equals the
// y^{q-e} form it replaced, for subgroup keys in both groups, on random
// challenges and on the edge values e = 0, 1 and q-1.
func TestInvExpMatchesSubgroupForm(t *testing.T) {
	r := mrand.New(mrand.NewSource(13))
	for name, g := range map[string]*Group{"768": Group768(), "2048": Group2048()} {
		var es []*big.Int
		es = append(es, big.NewInt(0), big.NewInt(1), new(big.Int).Sub(g.Q, big.NewInt(1)))
		for i := 0; i < 6; i++ {
			es = append(es, new(big.Int).Rand(r, g.Q))
		}
		for i := 0; i < 3; i++ {
			k, err := GenerateKey(g, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range es {
				want := new(big.Int).Exp(k.Y, new(big.Int).Sub(g.Q, e), g.P)
				if got := invExp(g, k.Y, e); got.Cmp(want) != 0 {
					t.Errorf("%s: key %d, e=%v: (y^e)^-1 != y^(q-e)", name, i, e)
				}
			}
		}
	}
}
