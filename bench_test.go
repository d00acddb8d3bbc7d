// The evaluation harness: one testing.B family per table or figure
// (T1–T5, F1–F3, A1). docs/experiments.md maps every column of every
// table to its family, sub-benchmark and unit. Pick experiments with
// the -bench regex and the client sweep with -cpu, e.g.
//
//	go test -run=NONE -bench='^Benchmark(T[1-5]|F[1-3]|A1)_' -benchtime=1x .
//
// Latencies are ns/op; privacy scores, byte sizes and card operation
// counts are extra columns reported with b.ReportMetric.
package p2drm_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/baseline"
	"p2drm/internal/core"
	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/domain"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/linkage"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
	"p2drm/internal/workload"
)

var benchNow = time.Date(2004, 9, 1, 12, 0, 0, 0, time.UTC)

func benchClock() time.Time { return benchNow }

var benchTemplate = rel.MustParse(`
grant play count 1000000;
grant transfer;
delegate allow;
`)

// ---- shared fixtures (built once; RSA keygen dominates setup) ----

// cryptoParams is one parameter set of the primitive benchmarks: "lab"
// keeps every family fast, "production" is the deployment default.
type cryptoParams struct {
	name    string
	rsaBits int
	group   *schnorr.Group
}

var t1Params = []cryptoParams{
	{"lab", 1024, schnorr.Group768()},
	{"production", 2048, schnorr.Group2048()},
}

type cryptoFixture struct {
	group  *schnorr.Group
	signer *rsablind.Signer
	sk     *schnorr.PrivateKey
}

var (
	fixMu    sync.Mutex
	fixCache = map[string]*cryptoFixture{}
)

// fixture returns the signer and Schnorr key for one parameter set,
// generating them on first use.
func fixture(b *testing.B, p cryptoParams) *cryptoFixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixCache[p.name]; ok {
		return f
	}
	key, err := rsa.GenerateKey(rand.Reader, p.rsaBits)
	if err != nil {
		b.Fatal(err)
	}
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := schnorr.GenerateKey(p.group, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	f := &cryptoFixture{group: p.group, signer: signer, sk: sk}
	fixCache[p.name] = f
	return f
}

func labFixture(b *testing.B) *cryptoFixture { return fixture(b, t1Params[0]) }

var (
	sysOnce  sync.Once
	benchSys *core.System
)

// benchNoncePoolCap sizes the shared nonce pool so a 2s timed run
// (≲4000 draws) stays above the refill low-water mark.
const benchNoncePoolCap = 8192

func labSystem(b *testing.B) *core.System {
	b.Helper()
	sysOnce.Do(func() {
		sys, err := core.NewSystem(core.Options{
			Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
			Clock: benchClock,
		})
		if err != nil {
			panic(err)
		}
		if _, err := sys.Provider.AddContent("bench-song", "Bench", 1, benchTemplate,
			bytes.Repeat([]byte("x"), 4096)); err != nil {
			panic(err)
		}
		// Crypto accelerators, sized for the bench box: the nonce pool must
		// absorb one full timed run (pools refill once depth falls below
		// half capacity, and on a single-core runner that refill competes
		// with the timed path for CPU — in production it overlaps idle
		// periods and spare cores).
		sys.Group.Precompute()
		sys.Group.EnableNoncePool(benchNoncePoolCap, 1)
		sys.Bank.EnableCoinBlindingPool(512, 1)
		sys.Provider.EnableDenomBlindingPools(512, 1)
		benchSys = sys
	})
	return benchSys
}

// prefillBenchPools tops the nonce and blinding pools up to capacity in
// untimed setup, so the timed sections below measure pooled draws rather
// than pool refills — on a single-core bench box the background fillers
// compete with the timed path for CPU.
func prefillBenchPools(b *testing.B, sys *core.System) {
	b.Helper()
	if err := sys.Group.PrefillNoncePool(1 << 20); err != nil {
		b.Fatal(err)
	}
	if err := rsablind.PrefillBlindingPool(sys.Bank.CoinPub(), 1<<20); err != nil {
		b.Fatal(err)
	}
}

// ---- T1: crypto primitives ----

// benchT1 runs body as one sub-benchmark per parameter set.
func benchT1(b *testing.B, body func(b *testing.B, f *cryptoFixture)) {
	for _, p := range t1Params {
		b.Run(p.name, func(b *testing.B) {
			f := fixture(b, p)
			b.ResetTimer()
			body(b, f)
		})
	}
}

func BenchmarkT1_RSAFDHSign(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		msg := []byte("message")
		for i := 0; i < b.N; i++ {
			if _, err := f.signer.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_BlindPipeline(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		msg := []byte("serial")
		for i := 0; i < b.N; i++ {
			blinded, st, err := rsablind.Blind(f.signer.Public(), msg, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			bs, err := f.signer.SignBlinded(blinded)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rsablind.Unblind(f.signer.Public(), st, bs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_SchnorrProve(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		for i := 0; i < b.N; i++ {
			if _, err := f.sk.Prove([]byte("ctx"), rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_SchnorrVerify(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		proof, err := f.sk.Prove([]byte("ctx"), rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := schnorr.VerifyProof(f.group, f.sk.Y, []byte("ctx"), proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_KEMEncap(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dlkem.Encap(f.group, f.sk.Y, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkT1_KEMDecap(b *testing.B) {
	benchT1(b, func(b *testing.B, f *cryptoFixture) {
		ct, _, err := dlkem.Encap(f.group, f.sk.Y, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dlkem.Decap(f.group, f.sk.X, ct); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- T2: protocol operations ----

func BenchmarkT2_PurchaseP2DRM(b *testing.B) {
	sys := labSystem(b)
	u, err := sys.NewUser(fmt.Sprintf("buyer-%d", time.Now().UnixNano()), int64(b.N)*4+100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Purchase(u, "bench-song"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT2_TransferP2DRM(b *testing.B) {
	sys := labSystem(b)
	from, err := sys.NewUser(fmt.Sprintf("from-%d", time.Now().UnixNano()), int64(b.N)*4+100)
	if err != nil {
		b.Fatal(err)
	}
	to, err := sys.NewUser(fmt.Sprintf("to-%d", time.Now().UnixNano()), 10)
	if err != nil {
		b.Fatal(err)
	}
	lics := make([]*license.Personalized, b.N)
	for i := range lics {
		lic, err := sys.Purchase(from, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		lics[i] = lic
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Transfer(from, lics[i], to); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT2_PlayDevice(b *testing.B) {
	sys := labSystem(b)
	u, err := sys.NewUser(fmt.Sprintf("player-%d", time.Now().UnixNano()), 100)
	if err != nil {
		b.Fatal(err)
	}
	lic, err := sys.Purchase(u, "bench-song")
	if err != nil {
		b.Fatal(err)
	}
	dev, _, err := sys.NewDevice(fmt.Sprintf("dev-%d", time.Now().UnixNano()), "audio", "EU")
	if err != nil {
		b.Fatal(err)
	}
	var sink bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if err := sys.Play(u, dev, lic, &sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT2_RedeemP2DRM times the second transfer half on its own:
// the recipient trades a bearer token for a license under a fresh
// pseudonym. The tokens are exchanged in untimed setup.
func BenchmarkT2_RedeemP2DRM(b *testing.B) {
	sys := labSystem(b)
	from, err := sys.NewUser(fmt.Sprintf("giver-%d", time.Now().UnixNano()), int64(b.N)*4+100)
	if err != nil {
		b.Fatal(err)
	}
	to, err := sys.NewUser(fmt.Sprintf("taker-%d", time.Now().UnixNano()), 10)
	if err != nil {
		b.Fatal(err)
	}
	tokens := make([]*license.Anonymous, b.N)
	for i := range tokens {
		lic, err := sys.Purchase(from, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		if tokens[i], err = sys.Exchange(from, lic); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Redeem(to, tokens[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// baselineProvider is the identified-DRM comparison point with the
// bench item listed and "alice" registered.
func baselineProvider(b *testing.B, funds int64) (*baseline.Provider, *baseline.Account) {
	b.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	st, _ := kvstore.Open("")
	bp, err := baseline.New(key, st, benchClock)
	if err != nil {
		b.Fatal(err)
	}
	if err := bp.AddContent("bench-song", 1, benchTemplate, []byte("x")); err != nil {
		b.Fatal(err)
	}
	alice, err := bp.Register("alice", funds, 1024)
	if err != nil {
		b.Fatal(err)
	}
	return bp, alice
}

func BenchmarkT2_PurchaseBaseline(b *testing.B) {
	bp, _ := baselineProvider(b, int64(b.N)+100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Purchase("alice", "bench-song"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT2_TransferBaseline is the identified transfer: the provider
// revokes the sender's license and issues one naming the recipient.
func BenchmarkT2_TransferBaseline(b *testing.B) {
	bp, _ := baselineProvider(b, int64(b.N)+100)
	if _, err := bp.Register("bob", 100, 1024); err != nil {
		b.Fatal(err)
	}
	lics := make([]*baseline.License, b.N)
	for i := range lics {
		lic, err := bp.Purchase("alice", "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		lics[i] = lic
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Transfer("alice", lics[i].Serial, "bob"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT2_PlayBaseline(b *testing.B) {
	bp, alice := baselineProvider(b, 100)
	lic, err := bp.Purchase("alice", "bench-song")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Play(alice, lic, benchNow, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- T3: provider throughput ----
//
// The parallel pair below is the concurrency headline: compare
// T3_PurchaseParallel against single-threaded T2_PurchaseP2DRM (and
// T3_ExchangeParallel against A1_ExchangeBlinded) to see throughput
// scale with GOMAXPROCS now that provider crypto runs outside locks.

func BenchmarkT3_PurchaseParallel(b *testing.B) {
	sys := labSystem(b)
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("par-%d-%d", time.Now().UnixNano(), ctr.Add(1))
		u, err := sys.NewUser(name, 1<<30)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if _, err := sys.Purchase(u, "bench-song"); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkT3_ExchangeParallel(b *testing.B) {
	sys := labSystem(b)
	// Pre-purchase the licenses to exchange; the pool channel hands one
	// to each timed iteration. Several goroutines share each user — the
	// card and wallet are internally synchronized.
	nUsers := runtime.GOMAXPROCS(0)
	users := make([]*core.User, nUsers)
	for i := range users {
		u, err := sys.NewUser(fmt.Sprintf("xpar-%d-%d", time.Now().UnixNano(), i), 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		users[i] = u
	}
	type holder struct {
		u   *core.User
		lic *license.Personalized
	}
	pool := make(chan holder, b.N)
	for i := 0; i < b.N; i++ {
		u := users[i%nUsers]
		lic, err := sys.Purchase(u, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		pool <- holder{u, lic}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h := <-pool
			if _, err := sys.Exchange(h.u, h.lic); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkT3_PurchaseBatch(b *testing.B) {
	sys := labSystem(b)
	u, err := sys.NewUser(fmt.Sprintf("batch-%d", time.Now().UnixNano()), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	// One registered pseudonym buys the whole batch; coins are withdrawn
	// up front so the timed section is pure provider work.
	idx := u.FreshPseudonym()
	ps, err := u.Card.Pseudonym(idx)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nonce, err := sys.Provider.Challenge(ctx)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := u.Card.Prove(idx, provider.RegisterContext(nonce))
	if err != nil {
		b.Fatal(err)
	}
	signPub := ps.SignPublic(sys.Group)
	encPub := ps.EncPublic(sys.Group)
	if err := sys.Provider.Register(ctx, signPub, encPub, proof, nonce); err != nil {
		b.Fatal(err)
	}
	reqs := make([]provider.PurchaseRequest, b.N)
	for i := range reqs {
		coins, err := sys.Bank.WithdrawCoins(u.BankAccount, 1)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = provider.PurchaseRequest{
			ContentID: "bench-song", SignPub: signPub, EncPub: encPub, Coins: coins,
		}
	}
	prefillBenchPools(b, sys)
	b.ResetTimer()
	for _, res := range sys.Provider.IssueBatch(ctx, reqs) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkT3_ExchangeBatch is the deposit-side mirror of
// T3_PurchaseBatch: all proofs, nonces and blinded serials are prepared
// up front, so the timed section is the provider's ExchangeBatch worker
// pool (verify, revoke, blind-sign).
func BenchmarkT3_ExchangeBatch(b *testing.B) {
	sys := labSystem(b)
	ctx := context.Background()
	u, err := sys.NewUser(fmt.Sprintf("xbatch-%d", time.Now().UnixNano()), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	denomPub, denomID, err := sys.Provider.DenomPublic("bench-song")
	if err != nil {
		b.Fatal(err)
	}
	items := make([]provider.ExchangeItem, b.N)
	for i := range items {
		lic, err := sys.Purchase(u, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		idx, err := u.PseudonymFor(lic.Serial)
		if err != nil {
			b.Fatal(err)
		}
		serial, err := license.NewSerial()
		if err != nil {
			b.Fatal(err)
		}
		blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		nonce, err := sys.Provider.Challenge(ctx)
		if err != nil {
			b.Fatal(err)
		}
		proof, err := u.Card.Prove(idx, provider.ExchangeContext(nonce, lic.Serial))
		if err != nil {
			b.Fatal(err)
		}
		items[i] = provider.ExchangeItem{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}
	}
	prefillBenchPools(b, sys)
	b.ResetTimer()
	for _, res := range sys.Provider.ExchangeBatch(ctx, items) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

var (
	bankKeyOnce  sync.Once
	benchBankKey *rsa.PrivateKey
)

// BenchmarkT3_DepositParallel sweeps the bank's shard count and the
// spent-ledger durability mode under 8-way concurrent deposits against a
// real on-disk WAL. The headline comparison is group-commit vs
// fsync-per-write at equal shard counts: both make every acknowledged
// deposit durable, but group commit shares each fsync across the commit
// window.
func BenchmarkT3_DepositParallel(b *testing.B) {
	bankKeyOnce.Do(func() {
		var err error
		if benchBankKey, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			panic(err)
		}
	})
	for _, mode := range []struct {
		name string
		pol  kvstore.SyncPolicy
	}{
		{"fsync_per_write", kvstore.SyncAlways},
		{"group_commit", kvstore.SyncGroupCommit},
	} {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/shards_%d", mode.name, shards), func(b *testing.B) {
				spent, err := kvstore.OpenWith(b.TempDir(), kvstore.Options{Sync: mode.pol})
				if err != nil {
					b.Fatal(err)
				}
				defer spent.Close()
				bank, err := payment.NewBankSharded(benchBankKey, spent, shards)
				if err != nil {
					b.Fatal(err)
				}
				if err := bank.CreateAccount("mint", int64(b.N)); err != nil {
					b.Fatal(err)
				}
				const payees = 8
				for i := 0; i < payees; i++ {
					if err := bank.CreateAccount(fmt.Sprintf("shop-%d", i), 0); err != nil {
						b.Fatal(err)
					}
				}
				coins, err := bank.WithdrawCoins("mint", b.N)
				if err != nil {
					b.Fatal(err)
				}
				coinCh := make(chan *payment.Coin, b.N)
				for _, c := range coins {
					coinCh <- c
				}
				var ctr atomic.Int64
				b.SetParallelism(payees) // 8 goroutines even on 1 core
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					payee := fmt.Sprintf("shop-%d", int(ctr.Add(1))%payees)
					for pb.Next() {
						if err := bank.Deposit(payee, <-coinCh); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkT3_GetParallel sweeps the kvstore's index-shard count under
// 8-way parallel reads against a preloaded in-memory store (disk is out
// of the picture on purpose: this family measures index lock contention,
// the bottleneck ROADMAP named after PR 2 batched the fsyncs).
func BenchmarkT3_GetParallel(b *testing.B) {
	const nKeys = 1 << 15
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("serial-%08d", i))
	}
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards_%d", shards), func(b *testing.B) {
			s, err := kvstore.OpenWith("", kvstore.Options{IndexShards: shards})
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range keys {
				if err := s.Put(k, []byte("v")); err != nil {
					b.Fatal(err)
				}
			}
			var ctr atomic.Int64
			b.SetParallelism(8) // ≥4-way even on few cores
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(ctr.Add(1)) * 7919 // spread goroutines across keys
				for pb.Next() {
					if _, ok := s.Get(keys[i%nKeys]); !ok {
						b.Error("preloaded key missing")
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkT3_PutIfAbsentParallel is the contention sweep for the
// double-spend gate: 8 writers hammering the CAS primitive on disjoint
// keys (the serving pattern — every coin serial is unique; same-key
// races are rare). In-memory store: the sweep isolates shard-lock
// contention from fsync policy, which T3_DepositParallel already covers.
func BenchmarkT3_PutIfAbsentParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards_%d", shards), func(b *testing.B) {
			s, err := kvstore.OpenWith("", kvstore.Options{IndexShards: shards})
			if err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var key [16]byte
				for pb.Next() {
					n := ctr.Add(1)
					binary.BigEndian.PutUint64(key[:8], uint64(n))
					ok, err := s.PutIfAbsent(key[:], []byte{1})
					if err != nil || !ok {
						b.Errorf("CAS winner lost its unique key: ok=%v err=%v", ok, err)
						return
					}
				}
			})
		})
	}
}

// ---- T4: revocation scaling ----

var revocationSizes = []int{1_000, 10_000, 100_000}

func benchRevocationList(b *testing.B, size int) (*revocation.List, []license.Serial) {
	b.Helper()
	st, _ := kvstore.Open("")
	list, err := revocation.Open(st, uint64(size))
	if err != nil {
		b.Fatal(err)
	}
	serials := make([]license.Serial, size)
	for i := range serials {
		s, err := license.NewSerial()
		if err != nil {
			b.Fatal(err)
		}
		serials[i] = s
	}
	if err := list.AddBatch(serials); err != nil {
		b.Fatal(err)
	}
	return list, serials
}

func BenchmarkT4_RevocationContains(b *testing.B) {
	for _, size := range revocationSizes {
		list, serials := benchRevocationList(b, size)
		miss, _ := license.NewSerial()
		b.Run(fmt.Sprintf("hit_n%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !list.Contains(serials[i%size]) {
					b.Fatal("false negative")
				}
			}
		})
		b.Run(fmt.Sprintf("miss_n%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if list.Contains(miss) {
					b.Fatal("false positive on fixed probe")
				}
			}
		})
	}
}

// BenchmarkT4_MerkleProof times the audit path at each list size:
// prove_verify is one inclusion proof checked against a signed
// snapshot, snapshot builds that snapshot (Merkle tree over the whole
// list plus the root signature).
func BenchmarkT4_MerkleProof(b *testing.B) {
	signer := labFixture(b).signer
	for _, size := range revocationSizes {
		list, serials := benchRevocationList(b, size)
		snap, tree, err := list.Snapshot(signer, benchNow)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("prove_verify_n%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := serials[i%size]
				proof, err := revocation.ProveRevoked(tree, s)
				if err != nil {
					b.Fatal(err)
				}
				if err := revocation.VerifyRevoked(snap, s, proof); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot_n%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := list.Snapshot(signer, benchNow); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T5: smartcard-constrained play ----

// BenchmarkT5_CardDelay models slow card silicon: every modular
// exponentiation on the card sleeps for the given delay. prove is one
// card proof, play the full device pipeline (sys.Play); both report the
// card's modular exponentiations per op, which dominate as the card
// slows.
func BenchmarkT5_CardDelay(b *testing.B) {
	sys := labSystem(b)
	for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond} {
		u, err := sys.NewUser(fmt.Sprintf("card-%d", time.Now().UnixNano()), 10)
		if err != nil {
			b.Fatal(err)
		}
		lic, err := sys.Purchase(u, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		idx, err := u.PseudonymFor(lic.Serial)
		if err != nil {
			b.Fatal(err)
		}
		dev, _, err := sys.NewDevice(fmt.Sprintf("card-dev-%d", time.Now().UnixNano()), "audio", "EU")
		if err != nil {
			b.Fatal(err)
		}
		var sink bytes.Buffer
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"prove", func() error {
				_, err := u.Card.Prove(idx, []byte("challenge"))
				return err
			}},
			{"play", func() error {
				sink.Reset()
				return sys.Play(u, dev, lic, &sink)
			}},
		} {
			b.Run(fmt.Sprintf("%s/delay_%s", op.name, delay), func(b *testing.B) {
				u.Card.SetOpDelay(delay)
				before := u.Card.Stats().ModExps
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := op.run(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(u.Card.Stats().ModExps-before)/float64(b.N), "modexps/op")
			})
		}
	}
}

// ---- F1: linkage attack vs pseudonym reuse ----

// linkageTrace runs a seeded workload on a fresh lab system; the
// provider journal in the result is what the linking attack sees.
func linkageTrace(b testing.TB, cfg workload.Config, disableBlinding bool) (*core.System, *workload.Result) {
	b.Helper()
	sys, err := core.NewSystem(core.Options{
		Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
		Clock: benchClock, DisableBlinding: disableBlinding,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := workload.Populate(sys, cfg); err != nil {
		b.Fatal(err)
	}
	res, err := workload.Run(sys, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys, res
}

// f1Config is the F1 trace at one pseudonym-reuse setting.
func f1Config(reuse int) workload.Config {
	return workload.Config{
		Users: 4, Contents: 2, PriceCredits: 1, Purchases: 24,
		TransferFraction: 0.5, PurchasesPerPseudonym: reuse,
		DeferRedemptions: true, Seed: 99,
	}
}

// BenchmarkF1_LinkageAttack times the provider's linking attack over
// its own journal while users reuse each pseudonym for 1–16 purchases,
// and reports what the attack recovers: pairwise recall and precision
// against ground truth, and the mean anonymity entropy of a redemption
// (bits). Redemptions are deferred so tokens circulate first.
func BenchmarkF1_LinkageAttack(b *testing.B) {
	for _, reuse := range []int{1, 2, 4, 8, 16} {
		sys, res := linkageTrace(b, f1Config(reuse), false)
		b.Run(fmt.Sprintf("reuse_%d", reuse), func(b *testing.B) {
			var m linkage.Metrics
			for i := 0; i < b.N; i++ {
				c := linkage.Attack(res.Events, sys.Provider.DenomPublic)
				m = linkage.Evaluate(res.Events, c, res.Truth)
			}
			b.ReportMetric(m.Recall, "recall")
			b.ReportMetric(m.Precision, "precision")
			b.ReportMetric(linkage.MeanEntropy(linkage.AnonymitySetSizes(res.Events)), "entropy_bits")
		})
	}
}

// ---- F2: license size vs rights complexity ----

// BenchmarkF2_LicenseMarshal times the personalized license's codec
// round trip as its rights grow from 1 to 32 clauses, and reports the
// wire size of every license kind at that complexity: personalized,
// anonymous (a constant-size bearer token), star (delegated) and the
// identified baseline's.
func BenchmarkF2_LicenseMarshal(b *testing.B) {
	signer := labFixture(b).signer
	g := schnorr.Group768()
	card, err := smartcard.NewRandom(g)
	if err != nil {
		b.Fatal(err)
	}
	holder, err := card.Pseudonym(0)
	if err != nil {
		b.Fatal(err)
	}
	delegate, err := card.Pseudonym(1)
	if err != nil {
		b.Fatal(err)
	}
	contentKey := make([]byte, 32)
	rand.Read(contentKey)
	restriction := rel.NewBuilder().GrantCount(rel.ActPlay, 1).MustBuild()
	for _, clauses := range []int{1, 2, 4, 8, 16, 32} {
		rb := rel.NewBuilder().Grant(rel.ActPlay).AllowDelegation()
		for i := 1; i < clauses; i++ {
			rb.GrantCount(rel.Action(fmt.Sprintf("custom-action-%02d", i)), int64(i+1))
		}
		rights, err := rb.Build()
		if err != nil {
			b.Fatal(err)
		}
		serial, _ := license.NewSerial()
		kw, err := license.WrapKey(g, holder.EncY(), contentKey, license.WrapLabelPersonalized(serial, "c"))
		if err != nil {
			b.Fatal(err)
		}
		lic := &license.Personalized{
			Serial: serial, ContentID: "c",
			HolderSign: holder.SignPublic(g), HolderEnc: holder.EncPublic(g),
			Rights: rights, KeyWrap: kw, IssuedAt: benchNow,
		}
		if lic.ProviderSig, err = signer.Sign(lic.SigningBytes()); err != nil {
			b.Fatal(err)
		}
		anonSerial, _ := license.NewSerial()
		denom := license.Denom("c", rights)
		asig, err := signer.Sign(license.AnonymousSigningBytes(anonSerial, denom))
		if err != nil {
			b.Fatal(err)
		}
		anon := &license.Anonymous{Serial: anonSerial, Denom: denom, Sig: asig}
		star, err := card.IssueStarLicense(0, lic, restriction,
			delegate.SignPublic(g), delegate.EncPublic(g), benchNow)
		if err != nil {
			b.Fatal(err)
		}
		bl := &baseline.License{
			Serial: serial, ContentID: "c", UserID: "alice@example.com",
			Rights: rights, WrappedKey: make([]byte, 128), IssuedAt: benchNow,
		}
		if bl.Sig, err = signer.Sign(bl.SigningBytes()); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("clauses_%d", clauses), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := license.UnmarshalPersonalized(lic.Marshal()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(lic.Marshal())), "personalized_bytes")
			b.ReportMetric(float64(len(anon.Marshal())), "anonymous_bytes")
			b.ReportMetric(float64(len(star.Marshal())), "star_bytes")
			b.ReportMetric(float64(len(bl.SigningBytes())+len(bl.Sig)), "baseline_bytes")
		})
	}
}

// ---- F3: authorized domains ----

// BenchmarkF3_KeyRewrap is the domain member wrap: the manager's card
// unwraps the content key and re-wraps it to a member device.
func BenchmarkF3_KeyRewrap(b *testing.B) {
	g := schnorr.Group768()
	card, err := smartcard.NewRandom(g)
	if err != nil {
		b.Fatal(err)
	}
	ps, _ := card.Pseudonym(0)
	member, _ := card.Pseudonym(1)
	key := make([]byte, 32)
	rand.Read(key)
	kw, err := license.WrapKey(g, ps.EncY(), key, []byte("label"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unwrapped, err := card.UnwrapContentKey(0, kw, []byte("label"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := license.WrapKey(g, member.EncY(), unwrapped, []byte("member")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF3_Domain sweeps the domain size from 2 to 64 members. join
// admits the last member (certificate check, credential signature and
// the hiding count-commitment update) and is undone untimed; audit is
// the provider's check of the manager's size-audit opening.
func BenchmarkF3_Domain(b *testing.B) {
	signer := labFixture(b).signer
	g := schnorr.Group768()
	for _, size := range []int{2, 4, 8, 16, 32, 64} {
		card, err := smartcard.NewRandom(g)
		if err != nil {
			b.Fatal(err)
		}
		mgr, err := domain.NewManager("home", g, signer.Public(), card, 0, size+1)
		if err != nil {
			b.Fatal(err)
		}
		var last *device.Certificate
		for i := 0; i < size; i++ {
			devKey, err := schnorr.GenerateKey(g, rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			if last, err = device.Certify(signer, g, fmt.Sprintf("dev-%d", i), "audio", devKey.Y); err != nil {
				b.Fatal(err)
			}
			if i < size-1 {
				if _, err := mgr.Join(last, benchNow); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("join/members_%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mgr.Join(last, benchNow); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := mgr.Leave(last.DeviceID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
		if _, err := mgr.Join(last, benchNow); err != nil {
			b.Fatal(err)
		}
		commitment, audit := mgr.SizeCommitment(), mgr.Audit()
		b.Run(fmt.Sprintf("audit/members_%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := domain.VerifyAudit(g, commitment, audit, size+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- A1: blinding ablation ----

// The A1 pair runs the same seeded trace with blinding on and with the
// clear-serial ablation. ns/op is the exchange latency in that mode;
// the reported columns are what the linking attack recovers from the
// trace: the fraction of exchanges linked to their redemption
// (pair_recall) and overall pairwise recall.
func BenchmarkA1_ExchangeBlinded(b *testing.B) {
	benchExchange(b, false)
}

func BenchmarkA1_ExchangeClearSerial(b *testing.B) {
	benchExchange(b, true)
}

// a1Scores runs the A1 trace and returns what the linking attack
// recovers from it: the fraction of exchanges linked to their
// redemption and overall pairwise recall. The family goes on to time
// exchanges on the returned system.
func a1Scores(tb testing.TB, disableBlinding bool) (sys *core.System, pairRecall, recall float64) {
	tb.Helper()
	sys, res := linkageTrace(tb, workload.Config{
		Users: 4, Contents: 2, PriceCredits: 1, Purchases: 12,
		TransferFraction: 0.5, PurchasesPerPseudonym: 1, Seed: 7,
	}, disableBlinding)
	c := linkage.Attack(res.Events, sys.Provider.DenomPublic)
	linked, exchanges := linkage.LinkedTransfers(res.Events, c)
	if exchanges == 0 {
		tb.Fatal("trace made no transfers")
	}
	return sys, float64(linked) / float64(exchanges), linkage.Evaluate(res.Events, c, res.Truth).Recall
}

func benchExchange(b *testing.B, disableBlinding bool) {
	b.Helper()
	sys, pairRecall, recall := a1Scores(b, disableBlinding)

	if _, err := sys.Provider.AddContent("bench-song", "Bench", 1, benchTemplate, []byte("x")); err != nil {
		b.Fatal(err)
	}
	u, err := sys.NewUser("alice", int64(b.N)*4+100)
	if err != nil {
		b.Fatal(err)
	}
	lics := make([]*license.Personalized, b.N)
	for i := range lics {
		lic, err := sys.Purchase(u, "bench-song")
		if err != nil {
			b.Fatal(err)
		}
		lics[i] = lic
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Exchange(u, lics[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pairRecall, "pair_recall")
	b.ReportMetric(recall, "recall")
}

// TestF1Shape pins the F1 figure on the trace its family reports:
// the attack's recall grows from one purchase per pseudonym to 16.
func TestF1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long")
	}
	var recall [2]float64
	for i, reuse := range []int{1, 16} {
		sys, res := linkageTrace(t, f1Config(reuse), false)
		c := linkage.Attack(res.Events, sys.Provider.DenomPublic)
		recall[i] = linkage.Evaluate(res.Events, c, res.Truth).Recall
	}
	if !(recall[0] < recall[1]) {
		t.Errorf("recall did not grow with reuse: reuse_1=%.3f reuse_16=%.3f", recall[0], recall[1])
	}
}

// TestA1Shape pins the A1 ablation on the trace its family reports:
// blinded exchanges link to no redemption, clear serials to all.
func TestA1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long")
	}
	if _, blinded, _ := a1Scores(t, false); blinded != 0 {
		t.Errorf("blinded pair_recall = %.3f, want 0", blinded)
	}
	if _, clear, _ := a1Scores(t, true); clear != 1 {
		t.Errorf("clear-serial pair_recall = %.3f, want 1", clear)
	}
}
