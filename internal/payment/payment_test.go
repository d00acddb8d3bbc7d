package payment

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"testing"

	"p2drm/internal/kvstore"
)

var (
	keyOnce sync.Once
	bankKey *rsa.PrivateKey
)

func testKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		bankKey, err = rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
	})
	return bankKey
}

func testBank(t *testing.T) *Bank {
	t.Helper()
	st, _ := kvstore.Open("")
	b, err := NewBank(testKey(t), st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWithdrawDepositCycle(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 10)
	b.CreateAccount("shop", 0)

	coins, err := b.WithdrawCoins("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if bal, _ := b.Balance("alice"); bal != 7 {
		t.Errorf("alice balance = %d, want 7", bal)
	}
	for _, c := range coins {
		if err := VerifyCoin(b.CoinPub(), c); err != nil {
			t.Fatalf("coin invalid: %v", err)
		}
		if err := b.Deposit("shop", c); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	if bal, _ := b.Balance("shop"); bal != 3 {
		t.Errorf("shop balance = %d, want 3", bal)
	}
	if b.SpentCount() != 3 {
		t.Errorf("spent count = %d", b.SpentCount())
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 2)
	b.CreateAccount("shop1", 0)
	b.CreateAccount("shop2", 0)
	coins, err := b.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("shop1", coins[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("shop2", coins[0]); err != ErrDoubleSpend {
		t.Errorf("second deposit: %v, want ErrDoubleSpend", err)
	}
	if bal, _ := b.Balance("shop2"); bal != 0 {
		t.Error("double spend credited shop2")
	}
}

func TestInsufficientFunds(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("poor", 0)
	req, _ := NewCoinRequest(b.CoinPub(), rand.Reader)
	if _, err := b.Withdraw("poor", req.Blinded); err != ErrInsufficientFunds {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	if _, err := b.Withdraw("ghost", req.Blinded); err == nil {
		t.Error("unknown account withdrew")
	}
}

func TestForgedCoinRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("shop", 0)
	var forged Coin
	forged.Serial[0] = 1
	forged.Sig = make([]byte, 128)
	if err := b.Deposit("shop", &forged); err == nil {
		t.Error("forged coin deposited")
	}
	if err := VerifyCoin(b.CoinPub(), nil); err == nil {
		t.Error("nil coin verified")
	}
	var zero Coin
	zero.Sig = forged.Sig
	if err := VerifyCoin(b.CoinPub(), &zero); err == nil {
		t.Error("zero-serial coin verified")
	}
}

func TestTamperedCoinRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	b.CreateAccount("shop", 0)
	coins, _ := b.WithdrawCoins("alice", 1)
	c := coins[0]
	c.Serial[3] ^= 1 // serial no longer matches the signature
	if err := b.Deposit("shop", c); err == nil {
		t.Error("serial-tampered coin deposited")
	}
}

// TestUnlinkability: the bank's view during withdrawal (blinded values)
// shares no bytes with the coins that come back at deposit time. We test
// the mechanical property that the blinded request differs from the final
// signed serial message, and that two withdrawals by one account produce
// unrelated coins.
func TestUnlinkabilityShape(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 5)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		req, err := NewCoinRequest(b.CoinPub(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(req.Blinded)] {
			t.Fatal("blinded withdrawals collide")
		}
		seen[string(req.Blinded)] = true
		blindSig, err := b.Withdraw("alice", req.Blinded)
		if err != nil {
			t.Fatal(err)
		}
		coin, err := req.Finish(b.CoinPub(), blindSig)
		if err != nil {
			t.Fatal(err)
		}
		if string(coin.Sig) == string(blindSig) {
			t.Error("unblinded signature equals blinded signature: bank can link")
		}
	}
}

func TestAccountManagement(t *testing.T) {
	b := testBank(t)
	if err := b.CreateAccount("", 0); err == nil {
		t.Error("empty id accepted")
	}
	if err := b.CreateAccount("a", -1); err == nil {
		t.Error("negative balance accepted")
	}
	b.CreateAccount("a", 1)
	if err := b.CreateAccount("a", 1); err == nil {
		t.Error("duplicate account accepted")
	}
	if _, err := b.Balance("nobody"); err == nil {
		t.Error("unknown account balance returned")
	}
}

func TestDepositToUnknownAccount(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	coins, _ := b.WithdrawCoins("alice", 1)
	if err := b.Deposit("ghost", coins[0]); err == nil {
		t.Error("deposit to unknown account accepted")
	}
	// Failed deposit must not mark the coin spent.
	b.CreateAccount("shop", 0)
	if err := b.Deposit("shop", coins[0]); err != nil {
		t.Errorf("coin burned by failed deposit: %v", err)
	}
}

// TestConcurrentDepositSingleWinner is the regression test for the
// check-then-act race the ledger CAS closed: of N concurrent deposits of
// ONE coin, exactly one may credit, no matter which shards the payees
// land in.
func TestConcurrentDepositSingleWinner(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	coins, err := b.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 16
	payees := make([]string, racers)
	for i := range payees {
		payees[i] = fmt.Sprintf("shop-%d", i) // spread across shards
		if err := b.CreateAccount(payees[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Deposit(payees[i], coins[0])
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrDoubleSpend):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("coin deposited %d times, want exactly 1", wins)
	}
	var credited int64
	for _, p := range payees {
		bal, err := b.Balance(p)
		if err != nil {
			t.Fatal(err)
		}
		credited += bal
	}
	if credited != 1 {
		t.Fatalf("total credited = %d, want 1", credited)
	}
	if b.SpentCount() != 1 {
		t.Fatalf("spent count = %d, want 1", b.SpentCount())
	}
}

// TestShardCountInvariance: the shard count is a pure performance knob —
// the same operation sequence yields the same balances at 1, 3 and 16
// shards.
func TestShardCountInvariance(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		st, _ := kvstore.Open("")
		b, err := NewBankSharded(testKey(t), st, shards)
		if err != nil {
			t.Fatal(err)
		}
		if b.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", b.Shards(), shards)
		}
		b.CreateAccount("a", 5)
		b.CreateAccount("b", 0)
		coins, err := b.WithdrawCoins("a", 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range coins[:2] {
			if err := b.Deposit("b", c); err != nil {
				t.Fatal(err)
			}
		}
		if bal, _ := b.Balance("a"); bal != 2 {
			t.Errorf("shards=%d: a = %d, want 2", shards, bal)
		}
		if bal, _ := b.Balance("b"); bal != 2 {
			t.Errorf("shards=%d: b = %d, want 2", shards, bal)
		}
		if got := b.TotalBalance(); got != 4 {
			t.Errorf("shards=%d: total = %d, want 4 (1 coin in flight)", shards, got)
		}
	}
}

// TestWithdrawBatchAllOrNothing: a batch the balance only partly covers,
// or one with a bad element mid-batch, debits nothing and returns no
// signature; a good batch debits exactly its size.
func TestWithdrawBatchAllOrNothing(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 3)
	reqs, blinded, err := NewCoinRequests(b.CoinPub(), rand.Reader, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sigs, err := b.WithdrawBatch("alice", blinded); err != ErrInsufficientFunds || sigs != nil {
		t.Errorf("over-balance batch: sigs=%d err=%v, want ErrInsufficientFunds", len(sigs), err)
	}
	bad := [][]byte{blinded[0], b.CoinPub().N.Bytes(), blinded[2]} // N is out of range
	if sigs, err := b.WithdrawBatch("alice", bad); err == nil || sigs != nil {
		t.Errorf("malformed element: sigs=%d err=%v", len(sigs), err)
	}
	if _, err := b.WithdrawBatch("alice", nil); err == nil {
		t.Error("empty batch accepted")
	}
	if bal, _ := b.Balance("alice"); bal != 3 {
		t.Fatalf("balance = %d after rejected batches, want 3", bal)
	}
	sigs, err := b.WithdrawBatch("alice", blinded[:3])
	if err != nil {
		t.Fatal(err)
	}
	coins, err := FinishCoins(b.CoinPub(), reqs[:3], sigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(coins) != 3 {
		t.Fatalf("%d coins", len(coins))
	}
	if bal, _ := b.Balance("alice"); bal != 0 {
		t.Errorf("balance = %d, want 0", bal)
	}
}

// TestDepositCoinsAllOrNothing: a payment holding one spent, repeated
// or forged coin — or naming an unknown payee — burns none of its coins
// and credits nothing.
func TestDepositCoinsAllOrNothing(t *testing.T) {
	ctx := context.Background()
	b := testBank(t)
	b.CreateAccount("alice", 10)
	b.CreateAccount("shop", 0)
	coins, err := b.WithdrawCoins("alice", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("shop", coins[1]); err != nil {
		t.Fatal(err)
	}
	forged := &Coin{Serial: coins[3].Serial, Sig: append([]byte(nil), coins[3].Sig...)}
	forged.Sig[len(forged.Sig)-1] ^= 1
	for name, tc := range map[string]struct {
		payee string
		pay   []*Coin
	}{
		"spent":    {"shop", []*Coin{coins[0], coins[1], coins[2]}},
		"repeated": {"shop", []*Coin{coins[0], coins[2], coins[0]}},
		"forged":   {"shop", []*Coin{coins[0], forged, coins[2]}},
		"payee":    {"ghost", []*Coin{coins[0], coins[2]}},
	} {
		err := b.DepositCoins(ctx, tc.payee, tc.pay)
		if err == nil {
			t.Fatalf("%s: payment accepted", name)
		}
		if name == "spent" || name == "repeated" {
			if !errors.Is(err, ErrDoubleSpend) {
				t.Errorf("%s: err = %v, want ErrDoubleSpend", name, err)
			}
		}
	}
	if bal, _ := b.Balance("shop"); bal != 1 {
		t.Errorf("shop = %d after rejected payments, want 1", bal)
	}
	if b.SpentCount() != 1 {
		t.Fatalf("spent count = %d, want 1: a rejected payment burned a coin", b.SpentCount())
	}
	// Every coin a rejected payment carried is still good money.
	if err := b.DepositCoins(ctx, "shop", []*Coin{coins[0], coins[2], coins[3]}); err != nil {
		t.Fatal(err)
	}
	if bal, _ := b.Balance("shop"); bal != 4 {
		t.Errorf("shop = %d, want 4", bal)
	}
	if got := b.TotalBalance(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
}
