package ctcheck_test

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"io"
	"math/big"
	"testing"

	"p2drm/internal/cryptox/ctcheck"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
)

// Guard tuning. |t| > failT fails the guard (dudect's convention calls
// 4.5 "potentially leaky" and ~10 definite; 6 keeps slack for shared CI
// runners). Before comparing the classes, each class is compared against
// itself (first half vs second half of the interleaved run) — if that
// same-class statistic already exceeds noiseT, the box is too noisy for
// a verdict and the guard skips rather than cries wolf.
const (
	samples  = 300
	reps     = 3
	warmup   = 40
	trimFrac = 0.10
	noiseT   = 4.5
	failT    = 6.0
)

// guard interleave-measures the two classes and applies the noise
// control + Welch verdict. A leak verdict requires TWO independent
// measurement rounds past the threshold — a real timing dependence
// reproduces, while a one-off quiet-box fluke does not.
func guard(t *testing.T, name string, a, b func()) {
	t.Helper()
	for i := 0; i < warmup; i++ {
		a()
		b()
	}
	var tt float64
	for round := 0; round < 2; round++ {
		ta, tb := ctcheck.Measure(samples, reps, a, b)
		// Noise control: split each class into its even- and odd-indexed
		// samples — two interleaved populations of identical work, so any
		// significant statistic between them is machine noise, not a leak.
		// (An even/odd split, like the A/B interleave itself, cancels slow
		// drift; a first-half/second-half split would trip on every
		// thermal ramp.)
		for cls, xs := range map[string][]float64{"fixed": ta, "random": tb} {
			var even, odd []float64
			for i, x := range xs {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			h1 := ctcheck.Trim(even, trimFrac)
			h2 := ctcheck.Trim(odd, trimFrac)
			if st := ctcheck.Welch(h1, h2); st > noiseT || st < -noiseT {
				t.Skipf("%s: machine too noisy for a timing verdict (same-class %s t=%.1f)", name, cls, st)
			}
		}
		tt = ctcheck.Welch(ctcheck.Trim(ta, trimFrac), ctcheck.Trim(tb, trimFrac))
		if tt <= failT && tt >= -failT {
			t.Logf("%s: Welch t=%.1f", name, tt)
			return
		}
	}
	t.Errorf("%s: timing depends on the secret class in two independent rounds (Welch t=%.1f, |t|>%.1f)", name, tt, failT)
}

// freshGroup clones the 768-bit lab group parameters under a private
// pointer so Precompute/pool state cannot leak between guards (the
// acceleration registry is keyed by group pointer).
func freshGroup(name string) *schnorr.Group {
	b := schnorr.Group768()
	return &schnorr.Group{Name: name, P: b.P, Q: b.Q, G: b.G}
}

func randomScalars(t *testing.T, g *schnorr.Group, n int) []*big.Int {
	t.Helper()
	out := make([]*big.Int, n)
	for i := range out {
		x, err := rand.Int(rand.Reader, g.Q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = x
	}
	return out
}

// The fixed-base table is indexed by exponent digit, so without the
// ExpG blinding a fixed exponent would walk a fixed memory pattern.
// This guard checks the blinding does its job: exponentiating the
// constant 1 must be indistinguishable from exponentiating fresh
// random scalars.
func TestTimingExpGTable(t *testing.T) {
	g := freshGroup("ct-table")
	g.Precompute()
	fixed := big.NewInt(1)
	rnd := randomScalars(t, g, samples+warmup)
	i := 0
	guard(t, "ExpG/table",
		func() { g.ExpG(fixed) },
		func() { g.ExpG(rnd[i%len(rnd)]); i++ },
	)
}

// Same guard for the math/big fallback path (no table built): ExpG
// blinds there too, so both deployment configurations carry the same
// posture.
func TestTimingExpGFallback(t *testing.T) {
	g := freshGroup("ct-fallback")
	fixed := big.NewInt(1)
	rnd := randomScalars(t, g, samples+warmup)
	i := 0
	guard(t, "ExpG/fallback",
		func() { g.ExpG(fixed) },
		func() { g.ExpG(rnd[i%len(rnd)]); i++ },
	)
}

// Whole-operation guard over schnorr.Sign: one fixed private key
// against fresh random keys, same message.
func TestTimingSchnorrSign(t *testing.T) {
	g := freshGroup("ct-sign")
	g.Precompute()
	fixedKey, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*schnorr.PrivateKey, samples+warmup)
	for i := range keys {
		if keys[i], err = schnorr.GenerateKey(g, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	msg := []byte("timing-guard message")
	i := 0
	guard(t, "schnorr.Sign",
		func() {
			if _, err := fixedKey.Sign(msg, rand.Reader); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := keys[i%len(keys)].Sign(msg, rand.Reader); err != nil {
				t.Fatal(err)
			}
			i++
		},
	)
}

func timingTestKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// rsablind.Blind draws a random blinding factor r; its running time
// must not depend on r's value. The factor is single-use, so neither
// class ever repeats a value: replaying one fixed r lets the CPU's
// branch predictors learn that value's exact path through math/big,
// which makes ANY fixed r faster than fresh ones (Welch t leaned
// negative for every fixed seed tried and reached -9.5 under a loaded
// go test ./...) although r's value does not matter.
// Instead both classes draw a fresh r per call and differ in which
// values they draw: class A takes r = k^-1 mod N for a fresh 64-bit k,
// the worst case for a variable-time inverse (Euclid on (N, r) ends
// after about as many steps as k has digits, where a uniform r takes
// hundreds), and class B takes r uniform in [2, N-2]. Both reach Blind
// through in-memory readers, so the classes differ only in the factor's
// value, not the randomness source's syscall cost.
func TestTimingBlind(t *testing.T) {
	pub := &timingTestKey(t).PublicKey
	msg := []byte("timing-guard coin")
	// Blind draws r-2 uniformly from [0, N-4] with one 128-byte read. A
	// buffer holding an in-range r-2 is accepted on the first draw, so
	// each buffer deterministically encodes exactly one blinding factor.
	two := big.NewInt(2)
	span := new(big.Int).Sub(pub.N, big.NewInt(3))
	seed := func(rMinus2 *big.Int) []byte { return rMinus2.FillBytes(make([]byte, 128)) }
	n := (samples + warmup) * reps
	shortEuclid := make([][]byte, 0, n)
	for len(shortEuclid) < n {
		var k [8]byte
		if _, err := rand.Read(k[:]); err != nil {
			t.Fatal(err)
		}
		r := new(big.Int).ModInverse(new(big.Int).SetBytes(k[:]), pub.N)
		if r == nil {
			continue // k = 0
		}
		if d := r.Sub(r, two); d.Sign() >= 0 && d.Cmp(span) < 0 {
			shortEuclid = append(shortEuclid, seed(d))
		}
	}
	uniform := make([][]byte, n)
	for i := range uniform {
		d, err := rand.Int(rand.Reader, span)
		if err != nil {
			t.Fatal(err)
		}
		uniform[i] = seed(d)
	}
	ia, ib := 0, 0
	guard(t, "rsablind.Blind",
		func() {
			if _, _, err := rsablind.Blind(pub, msg, bytes.NewReader(shortEuclid[ia%n])); err != nil {
				t.Fatal(err)
			}
			ia++
		},
		func() {
			if _, _, err := rsablind.Blind(pub, msg, bytes.NewReader(uniform[ib%n])); err != nil {
				t.Fatal(err)
			}
			ib++
		},
	)
}

// rsablind.Unblind multiplies by the secret r^-1: a fixed factor
// against fresh ones. Both classes cycle through distinct state objects
// (the fixed class re-derives the SAME factor value in fresh memory
// each time) so the comparison isolates the secret's value from cache
// locality.
func TestTimingUnblind(t *testing.T) {
	key := timingTestKey(t)
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.Public()
	msg := []byte("timing-guard coin")
	type pair struct {
		st  *rsablind.State
		sig []byte
	}
	fixedSeed := make([]byte, 128)
	copy(fixedSeed[1:], bytes.Repeat([]byte{0x9d, 0x40, 0xe2}, 43))
	fixedSeed[0] = 0x11
	mk := func(random io.Reader) pair {
		blinded, st, err := rsablind.Blind(pub, msg, random)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := signer.SignBlinded(blinded)
		if err != nil {
			t.Fatal(err)
		}
		return pair{st, sig}
	}
	n := samples + warmup
	fixed := make([]pair, n)
	fresh := make([]pair, n)
	for i := range fixed {
		fixed[i] = mk(bytes.NewReader(fixedSeed))
		fresh[i] = mk(rand.Reader)
	}
	ia, ib := 0, 0
	guard(t, "rsablind.Unblind",
		func() {
			if _, err := rsablind.Unblind(pub, fixed[ia%n].st, fixed[ia%n].sig); err != nil {
				t.Fatal(err)
			}
			ia++
		},
		func() {
			if _, err := rsablind.Unblind(pub, fresh[ib%n].st, fresh[ib%n].sig); err != nil {
				t.Fatal(err)
			}
			ib++
		},
	)
}
