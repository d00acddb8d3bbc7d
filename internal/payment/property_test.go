package payment

// Property-based tests for the sharded bank. The model checked is value
// conservation: a withdrawal of n coins removes exactly n credits into
// coins, a deposit of n coins moves exactly n coins back into a balance
// or (if any of them is bad) moves nothing, and nothing else moves
// money. Run under -race in CI (see the race targets in the
// Makefile) so the shard locking is exercised, not just the arithmetic.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"p2drm/internal/kvstore"
)

// TestQuickSequentialConservation drives random single-threaded op
// sequences — batched withdrawals, slice deposits, and slice deposits
// voided by one already-spent coin — against banks of random shard
// counts: every reachable state must conserve total value against a
// plain model, and a voided payment must burn none of its coins.
func TestQuickSequentialConservation(t *testing.T) {
	key := testKey(t)
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64, shardSel, nOps uint8) bool {
		st, _ := kvstore.Open("")
		shards := 1 + int(shardSel)%16
		b, err := NewBankSharded(key, st, shards)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		const accounts, initial = 5, 10
		for i := 0; i < accounts; i++ {
			if err := b.CreateAccount(fmt.Sprintf("acct-%d", i), initial); err != nil {
				return false
			}
		}
		var outstanding []*Coin // withdrawn, not yet deposited
		var settled []*Coin     // deposited
		spent := 0
		for i := 0; i < int(nOps)+10; i++ {
			acct := fmt.Sprintf("acct-%d", r.Intn(accounts))
			switch {
			case r.Intn(3) != 0 || len(outstanding) == 0: // batched withdraw
				coins, err := b.WithdrawCoins(acct, 1+r.Intn(3))
				if err == ErrInsufficientFunds {
					continue
				}
				if err != nil {
					return false
				}
				outstanding = append(outstanding, coins...)
			default: // deposit a random slice of outstanding coins
				r.Shuffle(len(outstanding), func(a, b int) { outstanding[a], outstanding[b] = outstanding[b], outstanding[a] })
				k := 1 + r.Intn(min(3, len(outstanding)))
				pay := append([]*Coin(nil), outstanding[:k]...)
				if len(settled) > 0 && r.Intn(4) == 0 {
					// One spent coin voids the payment: nothing burns.
					pay = append(pay, settled[r.Intn(len(settled))])
					if err := b.DepositCoins(context.Background(), acct, pay); !errors.Is(err, ErrDoubleSpend) {
						return false
					}
					break
				}
				if err := b.DepositCoins(context.Background(), acct, pay); err != nil {
					return false
				}
				outstanding = outstanding[k:]
				settled = append(settled, pay...)
				spent += k
			}
			if got, want := b.TotalBalance(), int64(accounts*initial-len(outstanding)); got != want || b.SpentCount() != spent {
				t.Logf("seed %d op %d: total %d want %d (outstanding %d), spent %d want %d",
					seed, i, got, want, len(outstanding), b.SpentCount(), spent)
				return false
			}
		}
		// Every outstanding coin deposits exactly once; replays fail.
		for _, c := range outstanding {
			if err := b.Deposit("acct-0", c); err != nil {
				return false
			}
			if err := b.Deposit("acct-1", c); err != ErrDoubleSpend {
				return false
			}
			spent++
		}
		return b.TotalBalance() == accounts*initial && b.SpentCount() == spent
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestConcurrentConservationAcrossShards interleaves Withdraw and
// Deposit from many goroutines over accounts spread across every shard:
// at quiescence total value is conserved, every coin settled exactly
// once, and double-spend attempts all lose.
func TestConcurrentConservationAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, _ := kvstore.Open("")
			b, err := NewBankSharded(testKey(t), st, shards)
			if err != nil {
				t.Fatal(err)
			}
			const workers, opsPerWorker, accounts, initial = 8, 12, 8, 40
			for i := 0; i < accounts; i++ {
				if err := b.CreateAccount(fmt.Sprintf("acct-%d", i), initial); err != nil {
					t.Fatal(err)
				}
			}
			var (
				withdrawn atomic.Int64
				deposited atomic.Int64
				doubles   atomic.Int64
				coinCh    = make(chan *Coin, workers*opsPerWorker)
				spentOnce = make(chan *Coin, workers*opsPerWorker)
				wg        sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < opsPerWorker; i++ {
						from := fmt.Sprintf("acct-%d", r.Intn(accounts))
						to := fmt.Sprintf("acct-%d", r.Intn(accounts))
						coins, err := b.WithdrawCoins(from, 1)
						if err == ErrInsufficientFunds {
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						withdrawn.Add(1)
						coinCh <- coins[0]
						// Deposit someone's coin, racing a second
						// deposit of the same coin half the time.
						c := <-coinCh
						dep := func() {
							switch err := b.Deposit(to, c); {
							case err == nil:
								deposited.Add(1)
								spentOnce <- c
							case err == ErrDoubleSpend:
								doubles.Add(1)
							default:
								t.Error(err)
							}
						}
						if r.Intn(2) == 0 {
							var race sync.WaitGroup
							race.Add(2)
							go func() { defer race.Done(); dep() }()
							go func() { defer race.Done(); dep() }()
							race.Wait()
						} else {
							dep()
						}
					}
				}(w)
			}
			wg.Wait()
			close(coinCh)
			close(spentOnce)

			unspent := int64(len(coinCh))
			if got, want := b.TotalBalance(), int64(accounts*initial)-unspent; got != want {
				t.Errorf("total = %d, want %d (withdrawn %d, deposited %d, in flight %d)",
					got, want, withdrawn.Load(), deposited.Load(), unspent)
			}
			if deposited.Load()+unspent != withdrawn.Load() {
				t.Errorf("coins leaked: withdrawn %d != deposited %d + unspent %d",
					withdrawn.Load(), deposited.Load(), unspent)
			}
			if int64(b.SpentCount()) != deposited.Load() {
				t.Errorf("ledger %d entries, %d successful deposits", b.SpentCount(), deposited.Load())
			}
			// Replaying every settled coin must lose.
			for c := range spentOnce {
				if err := b.Deposit("acct-0", c); err != ErrDoubleSpend {
					t.Errorf("replayed coin: err = %v, want ErrDoubleSpend", err)
				}
			}
			t.Logf("withdrawn %d, deposited %d, raced doubles rejected %d", withdrawn.Load(), deposited.Load(), doubles.Load())
		})
	}
}

// TestConcurrentSharedCoinPayments races multi-coin payments that share
// coins: every coin settles exactly once, a payment that lost any coin
// burned none of its others (each coin outside the winning payments
// still deposits afterwards), and total value is conserved.
func TestConcurrentSharedCoinPayments(t *testing.T) {
	st, _ := kvstore.Open("")
	b, err := NewBankSharded(testKey(t), st, 4)
	if err != nil {
		t.Fatal(err)
	}
	const initial, pool, workers, paysPer, shops = 64, 40, 8, 10, 4
	if err := b.CreateAccount("alice", initial); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shops; i++ {
		if err := b.CreateAccount(fmt.Sprintf("shop-%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	coins, err := b.WithdrawCoins("alice", pool)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		settled = make(map[int]int) // coin index -> winning payment id
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for p := 0; p < paysPer; p++ {
				idx := r.Perm(pool)[:1+r.Intn(4)]
				pay := make([]*Coin, len(idx))
				for j, i := range idx {
					pay[j] = coins[i]
				}
				err := b.DepositCoins(context.Background(), fmt.Sprintf("shop-%d", r.Intn(shops)), pay)
				if errors.Is(err, ErrDoubleSpend) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				for _, i := range idx {
					if prev, dup := settled[i]; dup {
						t.Errorf("coin %d settled by payments %d and %d", i, prev, w*paysPer+p)
					}
					settled[i] = w*paysPer + p
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if b.SpentCount() != len(settled) {
		t.Fatalf("ledger holds %d coins, winning payments settled %d", b.SpentCount(), len(settled))
	}
	if got, want := b.TotalBalance(), int64(initial-pool+len(settled)); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	for i, c := range coins {
		err := b.Deposit("shop-0", c)
		if _, won := settled[i]; won != (err == ErrDoubleSpend) {
			t.Errorf("coin %d: settled=%v but late deposit err = %v", i, won, err)
		}
	}
	if got := b.TotalBalance(); got != initial {
		t.Errorf("total after settling the rest = %d, want %d", got, initial)
	}
	t.Logf("%d of %d coins settled by racing payments", len(settled), pool)
}
