// Package payment implements the anonymous payment channel the 2004 paper
// assumes: Chaum-style blind-signed cash.
//
// The bank knows WHO withdraws (it debits an account) but the coins it
// signs are blinded, so when a content provider later deposits a coin the
// bank cannot tell which withdrawal produced it. Combined with pseudonymous
// purchase, the provider learns neither identity nor payment trail.
//
// Coins are single-denomination ("1 credit") bearer tokens; prices are
// integer credit amounts. Double spending is prevented by a durable
// spent-serial ledger at the bank.
//
// # Concurrency model
//
// The bank serves every deposit on the purchase path, so its hot state is
// split so that no operation holds a global lock and no lock is held
// across crypto or I/O:
//
//   - Balances live in N hash shards (FNV-1a over the account id), each
//     with its own mutex. Withdrawals and deposits on different accounts
//     in different shards never contend.
//   - WithdrawBatch debits the whole coin count under the shard lock, all
//     or nothing, then releases it and blind-signs the coins in parallel
//     on at most GOMAXPROCS goroutines; a failed signature refunds the
//     full debit. Withdraw is its one-coin case.
//   - DepositCoins settles a payment's coins as one unit: one
//     kvstore.ApplyIfAbsent writes every spent mark in a single log
//     record (one group commit) only if no serial is already spent. Two
//     concurrent deposits sharing a coin see exactly one winner, and the
//     loser burns none of its coins, with no bank lock around the ledger
//     write. Deposit is its one-coin case.
//
// Crash ordering: deposits mark serials spent in the durable ledger
// BEFORE crediting the in-memory balance, so a crash between the two can
// at worst lose the payee a credit, never mint one. With the ledger store
// opened in kvstore group-commit (or fsync-per-write) mode, "DepositCoins
// returned nil" implies the spent marks are on stable storage.
//
// Lock order is trivial: no code path holds two shard locks at once, and
// the kvstore synchronizes internally.
package payment

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
)

// CoinSerialLen is the coin serial size.
const CoinSerialLen = 32

// Coin is a bearer credit: a user-chosen serial plus the bank's
// (blind-issued) signature over it.
type Coin struct {
	Serial [CoinSerialLen]byte
	Sig    []byte
}

// coinSigningBytes is the message the bank signs.
func coinSigningBytes(serial [CoinSerialLen]byte) []byte {
	return append([]byte("p2drm/coin/v1"), serial[:]...)
}

// VerifyCoin checks a coin's signature under the bank's coin key.
func VerifyCoin(bankPub *rsa.PublicKey, c *Coin) error {
	if c == nil {
		return errors.New("payment: nil coin")
	}
	if c.Serial == [CoinSerialLen]byte{} {
		return errors.New("payment: zero coin serial")
	}
	if err := rsablind.Verify(bankPub, coinSigningBytes(c.Serial), c.Sig); err != nil {
		return fmt.Errorf("payment: coin signature: %w", err)
	}
	return nil
}

// CoinRequest is the user-side state of one withdrawal: a fresh serial,
// its blinded form for the bank, and the unblinding state.
type CoinRequest struct {
	serial  [CoinSerialLen]byte
	Blinded []byte
	state   *rsablind.State
}

// NewCoinRequest prepares a withdrawal against the bank's coin key.
func NewCoinRequest(bankPub *rsa.PublicKey, random io.Reader) (*CoinRequest, error) {
	var serial [CoinSerialLen]byte
	if _, err := io.ReadFull(random, serial[:]); err != nil {
		return nil, fmt.Errorf("payment: serial: %w", err)
	}
	blinded, st, err := rsablind.Blind(bankPub, coinSigningBytes(serial), random)
	if err != nil {
		return nil, err
	}
	return &CoinRequest{serial: serial, Blinded: blinded, state: st}, nil
}

// Finish unblinds the bank's response into a spendable coin.
func (r *CoinRequest) Finish(bankPub *rsa.PublicKey, blindSig []byte) (*Coin, error) {
	sig, err := rsablind.Unblind(bankPub, r.state, blindSig)
	if err != nil {
		return nil, err
	}
	return &Coin{Serial: r.serial, Sig: sig}, nil
}

// DefaultBankShards is the balance-shard count used by NewBank.
const DefaultBankShards = 16

// Bank issues coins and settles deposits.
type Bank struct {
	signer *rsablind.Signer
	spent  *kvstore.Store
	shards []*accountShard
}

// accountShard is one independently locked slice of the balance map.
type accountShard struct {
	mu       sync.Mutex
	balances map[string]int64
}

// ErrInsufficientFunds is returned when a withdrawal exceeds the balance.
var ErrInsufficientFunds = errors.New("payment: insufficient funds")

// ErrDoubleSpend is returned when a deposited coin was already spent.
var ErrDoubleSpend = errors.New("payment: coin already spent")

// NewBank creates a bank around a dedicated coin-signing key and a durable
// spent-coin ledger, with DefaultBankShards balance shards.
func NewBank(key *rsa.PrivateKey, spent *kvstore.Store) (*Bank, error) {
	return NewBankSharded(key, spent, DefaultBankShards)
}

// NewBankSharded creates a bank with an explicit balance-shard count
// (minimum 1). More shards reduce lock contention across accounts; the
// double-spend ledger is shard-independent.
func NewBankSharded(key *rsa.PrivateKey, spent *kvstore.Store, shards int) (*Bank, error) {
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		return nil, err
	}
	if spent == nil {
		return nil, errors.New("payment: nil spent ledger")
	}
	if shards < 1 {
		shards = 1
	}
	b := &Bank{signer: signer, spent: spent, shards: make([]*accountShard, shards)}
	for i := range b.shards {
		b.shards[i] = &accountShard{balances: make(map[string]int64)}
	}
	return b, nil
}

// Shards reports the balance-shard count.
func (b *Bank) Shards() int { return len(b.shards) }

// shard maps an account id to its balance shard.
func (b *Bank) shard(accountID string) *accountShard {
	h := fnv.New32a()
	h.Write([]byte(accountID))
	return b.shards[h.Sum32()%uint32(len(b.shards))]
}

// CoinPub returns the bank's coin verification key.
func (b *Bank) CoinPub() *rsa.PublicKey { return b.signer.Public() }

// EnableCoinBlindingPool starts a background-filled pool of RSA
// blinding factors for the coin key, so withdrawal requests blind with
// a precomputed factor instead of paying an inverse plus an
// exponentiation inline. Purely an accelerator: pooled and inline
// withdrawals produce identically distributed (and identically
// verifiable) coins, and each factor is handed out at most once.
func (b *Bank) EnableCoinBlindingPool(capacity, fillers int) {
	rsablind.EnableBlindingPool(b.CoinPub(), capacity, fillers)
}

// DisableCoinBlindingPool stops and removes the coin key's pool.
func (b *Bank) DisableCoinBlindingPool() {
	rsablind.DisableBlindingPool(b.CoinPub())
}

// CreateAccount opens an account with an initial balance.
func (b *Bank) CreateAccount(id string, balance int64) error {
	if id == "" {
		return errors.New("payment: empty account id")
	}
	if balance < 0 {
		return errors.New("payment: negative initial balance")
	}
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.balances[id]; exists {
		return fmt.Errorf("payment: account %q already exists", id)
	}
	sh.balances[id] = balance
	return nil
}

// Balance reports an account balance.
func (b *Bank) Balance(id string) (int64, error) {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bal, ok := sh.balances[id]
	if !ok {
		return 0, fmt.Errorf("payment: unknown account %q", id)
	}
	return bal, nil
}

// TotalBalance sums every account balance. Shards are read one at a
// time, so under concurrent traffic the figure is a consistent total
// only at quiescence (which is when the conservation tests call it).
func (b *Bank) TotalBalance() int64 {
	var total int64
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, bal := range sh.balances {
			total += bal
		}
		sh.mu.Unlock()
	}
	return total
}

// Withdraw debits one credit from the account and blind-signs the
// presented blinded coin: the one-coin case of WithdrawBatch.
func (b *Bank) Withdraw(accountID string, blinded []byte) ([]byte, error) {
	sigs, err := b.WithdrawBatch(accountID, [][]byte{blinded})
	if err != nil {
		return nil, err
	}
	return sigs[0], nil
}

// WithdrawBatch debits one credit per blinded coin — the whole count at
// once under the account's shard lock, so a balance that covers only
// part of the batch debits nothing — and blind-signs every coin. The
// bank never sees a serial. Signing runs with no lock held, on at most
// GOMAXPROCS goroutines; if any signature fails, the full debit is
// refunded and no signature is returned.
func (b *Bank) WithdrawBatch(accountID string, blinded [][]byte) ([][]byte, error) {
	if len(blinded) == 0 {
		return nil, errors.New("payment: empty withdrawal")
	}
	n := int64(len(blinded))
	sh := b.shard(accountID)
	sh.mu.Lock()
	bal, ok := sh.balances[accountID]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("payment: unknown account %q", accountID)
	}
	if bal < n {
		sh.mu.Unlock()
		return nil, ErrInsufficientFunds
	}
	sh.balances[accountID] = bal - n
	sh.mu.Unlock()
	sigs, err := b.signAll(blinded)
	if err != nil {
		// Accounts are never deleted, so the refund cannot miss.
		sh.mu.Lock()
		sh.balances[accountID] += n
		sh.mu.Unlock()
		return nil, err
	}
	return sigs, nil
}

// signAll blind-signs every element on min(GOMAXPROCS, len) goroutines
// (the caller's among them) and returns the first failure, if any.
func (b *Bank) signAll(blinded [][]byte) ([][]byte, error) {
	sigs := make([][]byte, len(blinded))
	errs := make([]error, len(blinded))
	var next atomic.Int64
	sign := func() {
		for i := int(next.Add(1)) - 1; i < len(blinded); i = int(next.Add(1)) - 1 {
			sigs[i], errs[i] = b.signer.SignBlinded(blinded[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(blinded)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sign()
		}()
	}
	sign()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

// NewCoinRequests prepares n withdrawals against the bank's coin key.
func NewCoinRequests(bankPub *rsa.PublicKey, random io.Reader, n int) ([]*CoinRequest, [][]byte, error) {
	reqs := make([]*CoinRequest, n)
	blinded := make([][]byte, n)
	for i := range reqs {
		req, err := NewCoinRequest(bankPub, random)
		if err != nil {
			return nil, nil, err
		}
		reqs[i], blinded[i] = req, req.Blinded
	}
	return reqs, blinded, nil
}

// FinishCoins unblinds the bank's answers, in request order, into
// spendable coins; Finish verifies each one.
func FinishCoins(bankPub *rsa.PublicKey, reqs []*CoinRequest, blindSigs [][]byte) ([]*Coin, error) {
	if len(blindSigs) != len(reqs) {
		return nil, fmt.Errorf("payment: %d blind signatures for %d coins", len(blindSigs), len(reqs))
	}
	coins := make([]*Coin, len(reqs))
	for i, req := range reqs {
		coin, err := req.Finish(bankPub, blindSigs[i])
		if err != nil {
			return nil, fmt.Errorf("payment: coin %d: %w", i, err)
		}
		coins[i] = coin
	}
	return coins, nil
}

// WithdrawCoins is the in-process client+bank round minting n coins
// with one WithdrawBatch.
func (b *Bank) WithdrawCoins(accountID string, n int) ([]*Coin, error) {
	reqs, blinded, err := NewCoinRequests(b.CoinPub(), rand.Reader, n)
	if err != nil {
		return nil, err
	}
	blindSigs, err := b.WithdrawBatch(accountID, blinded)
	if err != nil {
		return nil, err
	}
	return FinishCoins(b.CoinPub(), reqs, blindSigs)
}

// Deposit settles one coin to the payee: the one-coin case of
// DepositCoins.
func (b *Bank) Deposit(payeeAccount string, c *Coin) error {
	return b.DepositCoins(context.Background(), payeeAccount, []*Coin{c})
}

// DepositCoins settles a whole payment as one unit: it verifies every
// coin, rejects a serial repeated within the slice, checks the payee,
// marks every serial spent with one kvstore.ApplyIfAbsent — one log
// record, one group commit — and credits the payee len(coins). If any
// coin is bad or already spent, no coin is burned and nothing is
// credited. Of any number of concurrent deposits sharing a coin,
// exactly one succeeds; there is no check-then-act window. The spent
// marks are written (durably, per the ledger's sync policy) before the
// credit, so a crash can at worst lose the payee a credit, never mint
// one. A traced ctx records the ledger's group-commit wait as a span.
func (b *Bank) DepositCoins(ctx context.Context, payeeAccount string, coins []*Coin) error {
	seen := make(map[[CoinSerialLen]byte]int, len(coins))
	marks := new(kvstore.Batch)
	for i, c := range coins {
		if err := VerifyCoin(b.CoinPub(), c); err != nil {
			return fmt.Errorf("payment: coin %d: %w", i, err)
		}
		if j, dup := seen[c.Serial]; dup {
			return fmt.Errorf("%w: coin %d repeats coin %d", ErrDoubleSpend, i, j)
		}
		seen[c.Serial] = i
		marks.Put(append([]byte("spent:"), c.Serial[:]...), []byte{1})
	}
	// Reject unknown payees before the ledger write so a misdirected
	// deposit never burns the coins.
	sh := b.shard(payeeAccount)
	sh.mu.Lock()
	_, ok := sh.balances[payeeAccount]
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("payment: unknown account %q", payeeAccount)
	}
	inserted, err := b.spent.ApplyIfAbsentCtx(ctx, marks)
	if err != nil {
		return fmt.Errorf("payment: ledger: %w", err)
	}
	if !inserted {
		return ErrDoubleSpend
	}
	// The spent marks are on the ledger; crediting cannot race an
	// account deletion because accounts are never deleted.
	sh.mu.Lock()
	sh.balances[payeeAccount] += int64(len(coins))
	sh.mu.Unlock()
	return nil
}

// SpentCount reports how many coins have been settled.
func (b *Bank) SpentCount() int {
	n := 0
	b.spent.PrefixScan([]byte("spent:"), func(k, v []byte) bool { n++; return true })
	return n
}
