// Package provider implements the P2DRM content provider: catalog,
// pseudonym registry, license issuance, the exchange/redeem pair that
// makes transfers unlinkable, and revocation publication.
//
// The provider is honest-but-curious in the threat model: it follows the
// protocol but logs everything it sees. The Events() journal is therefore
// a first-class output — the linkage experiments (F1/A1 in
// docs/experiments.md) run the published attack directly against this
// journal.
//
// What the provider can and cannot see, by operation:
//
//	Register  sees: fresh pseudonym keys + ownership proof. Not identity.
//	Purchase  sees: pseudonym, content, blind coins. Not identity, not
//	          the payer's bank account.
//	Exchange  sees: a valid license dying + a BLINDED serial. It signs
//	          the blinded serial without learning it.
//	Redeem    sees: a fresh pseudonym + a serial it has never seen
//	          before carrying its own valid signature. Unlinkable to any
//	          exchange (blindness), impossible to replay (redeemed set).
//
// # Concurrency model
//
// The provider serves many anonymous users at once, so shared state is
// split into independently locked slices and every public-key operation
// (RSA-FDH signing and blind signing, Schnorr proof verification, KEM
// encapsulation in license.WrapKey) runs with NO provider lock held:
//
//	catMu (RWMutex)  catalog, denomination signers and both denomination
//	                 indexes. Written only by AddContent; the serving
//	                 path takes short read locks to snapshot pointers.
//	nonceMu (Mutex)  the single-use challenge nonce cache. Consumption
//	                 is a delete-under-lock, so a nonce burns exactly
//	                 once no matter how many requests race on it.
//	jmu (Mutex)      the append-only observation journal (events, seq).
//	rev              revocation.List synchronizes internally.
//	cfg.Store        registration table, issuance ledger and the
//	                 redeemed-serial set live in the thread-safe kvstore;
//	                 PutIfAbsent is the atomic double-spend gate for
//	                 concurrent Redeem calls on the same serial.
//
// Lock ordering is a non-issue by construction: no code path holds two
// provider locks at once.
package provider

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"time"

	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/merkle"
	"p2drm/internal/payment"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
)

// Errors callers branch on.
var (
	ErrUnknownContent   = errors.New("provider: unknown content")
	ErrUnknownPseudonym = errors.New("provider: pseudonym not registered")
	ErrBadProof         = errors.New("provider: ownership proof invalid")
	ErrBadNonce         = errors.New("provider: unknown or expired nonce")
	ErrWrongPayment     = errors.New("provider: wrong payment amount")
	ErrLicenseRevoked   = errors.New("provider: license already revoked")
	ErrAlreadyRedeemed  = errors.New("provider: anonymous serial already redeemed")
	ErrUnknownDenom     = errors.New("provider: unknown denomination")
)

// nonceTTL bounds how long a challenge nonce stays valid.
const nonceTTL = 5 * time.Minute

// noncePurgeThreshold is the initial cache size that triggers an
// expired-entry sweep; after each sweep the threshold doubles from the
// surviving size, amortizing the O(n) scan so a burst of live nonces
// cannot make every Challenge pay for a full-map walk.
const noncePurgeThreshold = 4096

// Config configures a provider.
type Config struct {
	Group *schnorr.Group
	// SignerKey is the provider's main RSA key (licenses, revocation,
	// certificates). Denomination keys are generated separately.
	SignerKey *rsa.PrivateKey
	// DenomKeyBits sizes per-denomination blind-signing keys (default
	// 1024 in tests, 2048 in production configs).
	DenomKeyBits int
	Store        *kvstore.Store
	Bank         *payment.Bank
	// BankAccount is the provider's settlement account at the bank.
	BankAccount string
	Clock       func() time.Time
}

// CatalogItem describes purchasable content.
type CatalogItem struct {
	ID           license.ContentID
	Title        string
	PriceCredits int64
	Template     *rel.Rights
	// Encrypted is the envelope stream; freely distributable.
	Encrypted []byte

	contentKey []byte
	denom      license.DenominationID
}

// EventType enumerates journal entries.
type EventType string

// Journal event types.
const (
	EvRegister EventType = "register"
	EvPurchase EventType = "purchase"
	EvExchange EventType = "exchange"
	EvRedeem   EventType = "redeem"
)

// Event is one journal record: exactly the information the provider
// observes, nothing more. Linkage attacks consume this.
type Event struct {
	Seq         int
	Type        EventType
	At          time.Time
	PseudonymFP string // fingerprint of the pseudonym presented ("" if none)
	ContentID   license.ContentID
	Serial      string // personalized serial seen ("" if none)
	AnonSerial  string // anonymous serial seen in clear at redeem ("" otherwise)
	BlindedHash string // hash of the blinded blob seen at exchange
}

// Provider is the content provider.
type Provider struct {
	group  *schnorr.Group
	signer *rsablind.Signer
	cfg    Config

	// catMu guards the catalog maps; see the package comment for the
	// full locking model.
	catMu    sync.RWMutex
	catalog  map[license.ContentID]*CatalogItem
	denoms   map[license.DenominationID]*rsablind.Signer
	denomByC map[license.ContentID]license.DenominationID
	itemByD  map[license.DenominationID]*CatalogItem

	// nonceMu guards the single-use nonce cache.
	nonceMu    sync.Mutex
	nonces     map[string]time.Time
	nonceSweep int

	// jmu guards the append-only journal.
	jmu    sync.Mutex
	events []Event
	seq    int

	// batchSlots is a provider-wide semaphore bounding how many batch
	// purchases run crypto at once, across ALL IssueBatch calls — many
	// concurrent batches share these GOMAXPROCS slots instead of each
	// spawning its own full-width pool.
	batchSlots chan struct{}

	// crypto counts batch proof-verification activity (see crypto.go).
	crypto cryptoCounters

	rev *revocation.List
}

// New builds a provider.
func New(cfg Config) (*Provider, error) {
	if cfg.Group == nil || cfg.SignerKey == nil || cfg.Store == nil {
		return nil, errors.New("provider: group, signer key and store are required")
	}
	if cfg.Bank == nil || cfg.BankAccount == "" {
		return nil, errors.New("provider: bank and settlement account are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.DenomKeyBits == 0 {
		cfg.DenomKeyBits = 2048
	}
	signer, err := rsablind.NewSigner(cfg.SignerKey)
	if err != nil {
		return nil, err
	}
	rev, err := revocation.Open(cfg.Store, 0)
	if err != nil {
		return nil, err
	}
	return &Provider{
		group:      cfg.Group,
		signer:     signer,
		cfg:        cfg,
		catalog:    make(map[license.ContentID]*CatalogItem),
		denoms:     make(map[license.DenominationID]*rsablind.Signer),
		denomByC:   make(map[license.ContentID]license.DenominationID),
		itemByD:    make(map[license.DenominationID]*CatalogItem),
		nonces:     make(map[string]time.Time),
		batchSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		rev:        rev,
	}, nil
}

// Public returns the provider's license/revocation verification key: the
// trust anchor baked into compliant devices.
func (p *Provider) Public() *rsa.PublicKey { return p.signer.Public() }

// Group returns the provider's discrete-log group.
func (p *Provider) Group() *schnorr.Group { return p.group }

// log appends a journal event.
func (p *Provider) log(e Event) {
	p.jmu.Lock()
	defer p.jmu.Unlock()
	p.seq++
	e.Seq = p.seq
	e.At = p.cfg.Clock()
	p.events = append(p.events, e)
}

// Events returns a copy of the journal.
func (p *Provider) Events() []Event {
	p.jmu.Lock()
	defer p.jmu.Unlock()
	return append([]Event(nil), p.events...)
}

// fingerprint renders a pseudonym fingerprint for journaling and storage.
func (p *Provider) fingerprint(signPub []byte) string {
	fp := p.group.Fingerprint(new(big.Int).SetBytes(signPub))
	return hex.EncodeToString(fp[:])
}

// AddContent encrypts plaintext under a fresh content key and lists the
// item. One denomination key pair is generated per item: the blind
// signature's meaning ("this is an anonymous license for item X with
// template rights R") is carried entirely by WHICH key signed it.
//
// Key generation and envelope encryption — the expensive parts — run
// before the catalog lock is taken; the write section is map inserts
// only, so AddContent can run while the serving path reads the catalog.
func (p *Provider) AddContent(id license.ContentID, title string, price int64, template *rel.Rights, plaintext []byte) (*CatalogItem, error) {
	if id == "" {
		return nil, errors.New("provider: empty content id")
	}
	if price < 0 {
		return nil, errors.New("provider: negative price")
	}
	if err := template.Validate(); err != nil {
		return nil, fmt.Errorf("provider: template: %w", err)
	}
	key, err := envelope.NewContentKey()
	if err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	if err := envelope.EncryptStream(&enc, bytes.NewReader(plaintext), key, int64(len(plaintext)), 0); err != nil {
		return nil, err
	}
	denomKey, err := rsa.GenerateKey(rand.Reader, p.cfg.DenomKeyBits)
	if err != nil {
		return nil, fmt.Errorf("provider: denomination key: %w", err)
	}
	denomSigner, err := rsablind.NewSigner(denomKey)
	if err != nil {
		return nil, err
	}
	denom := license.Denom(id, template)

	item := &CatalogItem{
		ID:           id,
		Title:        title,
		PriceCredits: price,
		Template:     template.Clone(),
		Encrypted:    enc.Bytes(),
		contentKey:   key,
		denom:        denom,
	}
	p.catMu.Lock()
	defer p.catMu.Unlock()
	if _, dup := p.catalog[id]; dup {
		return nil, fmt.Errorf("provider: content %q already listed", id)
	}
	p.catalog[id] = item
	p.denoms[denom] = denomSigner
	p.denomByC[id] = denom
	p.itemByD[denom] = item
	return item, nil
}

// Item looks up a catalog item.
func (p *Provider) Item(id license.ContentID) (*CatalogItem, error) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	item, ok := p.catalog[id]
	if !ok {
		return nil, ErrUnknownContent
	}
	return item, nil
}

// Catalog lists all items.
func (p *Provider) Catalog() []*CatalogItem {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	out := make([]*CatalogItem, 0, len(p.catalog))
	for _, item := range p.catalog {
		out = append(out, item)
	}
	return out
}

// DenomPublic returns the denomination verification key for an item.
func (p *Provider) DenomPublic(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	denom, ok := p.denomByC[id]
	if !ok {
		return nil, license.DenominationID{}, ErrUnknownContent
	}
	return p.denoms[denom].Public(), denom, nil
}

// denomState snapshots the signer and item for a denomination under a
// short read lock, so callers can run crypto on them lock-free.
func (p *Provider) denomState(d license.DenominationID) (*rsablind.Signer, *CatalogItem, bool) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	signer, ok := p.denoms[d]
	if !ok {
		return nil, nil, false
	}
	return signer, p.itemByD[d], true
}

// Challenge issues a fresh nonce for proof-of-ownership flows. Nonces are
// single-use and expire after 5 minutes.
func (p *Provider) Challenge(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	buf := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, buf); err != nil {
		return "", err
	}
	nonce := hex.EncodeToString(buf)
	now := p.cfg.Clock()
	p.nonceMu.Lock()
	defer p.nonceMu.Unlock()
	if p.nonceSweep == 0 {
		p.nonceSweep = noncePurgeThreshold
	}
	if len(p.nonces) >= p.nonceSweep {
		for n, exp := range p.nonces {
			if now.After(exp) {
				delete(p.nonces, n)
			}
		}
		p.nonceSweep = 2 * len(p.nonces)
		if p.nonceSweep < noncePurgeThreshold {
			p.nonceSweep = noncePurgeThreshold
		}
	}
	p.nonces[nonce] = now.Add(nonceTTL)
	return nonce, nil
}

// consumeNonce validates and burns a nonce. The delete happens under
// nonceMu, so of any number of concurrent requests presenting the same
// nonce exactly one succeeds.
func (p *Provider) consumeNonce(nonce string) error {
	p.nonceMu.Lock()
	defer p.nonceMu.Unlock()
	exp, ok := p.nonces[nonce]
	if !ok {
		return ErrBadNonce
	}
	delete(p.nonces, nonce)
	if p.cfg.Clock().After(exp) {
		return ErrBadNonce
	}
	return nil
}

// registration storage key
func regKey(fp string) []byte { return []byte("pseudonym:" + fp) }

// Register records a pseudonym after verifying the ownership proof bound
// to a Challenge nonce. The proof context matches smartcard.Card.Prove.
func (p *Provider) Register(ctx context.Context, signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := p.consumeNonce(nonce); err != nil {
		return err
	}
	signY := new(big.Int).SetBytes(signPub)
	encY := new(big.Int).SetBytes(encPub)
	if err := p.group.ValidatePublicKey(signY); err != nil {
		return fmt.Errorf("provider: sign key: %w", err)
	}
	if err := p.group.ValidatePublicKey(encY); err != nil {
		return fmt.Errorf("provider: enc key: %w", err)
	}
	// Schnorr verification: public-key crypto, no provider lock held.
	if err := schnorr.VerifyProof(p.group, signY, RegisterContext(nonce), proof); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	fp := p.fingerprint(signPub)
	if err := p.cfg.Store.PutCtx(ctx, regKey(fp), append(append([]byte(nil), signPub...), encPub...)); err != nil {
		return err
	}
	p.log(Event{Type: EvRegister, PseudonymFP: fp})
	return nil
}

// RegisterContext is the proof context for registration with a nonce.
func RegisterContext(nonce string) []byte {
	return []byte("p2drm/register/v1|" + nonce)
}

// registered reports whether a pseudonym is known.
func (p *Provider) registered(signPub []byte) bool {
	return p.cfg.Store.Has(regKey(p.fingerprint(signPub)))
}

// PurchaseRequest is an anonymous purchase: a registered pseudonym, the
// item, and exact payment in bearer coins.
type PurchaseRequest struct {
	ContentID license.ContentID
	SignPub   []byte
	EncPub    []byte
	Coins     []*payment.Coin
}

// Purchase settles payment and issues a personalized license to the
// pseudonym. The provider learns the pseudonym but neither the identity
// behind it nor the coins' withdrawal origin.
func (p *Provider) Purchase(ctx context.Context, req PurchaseRequest) (*license.Personalized, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	item, err := p.Item(req.ContentID)
	if err != nil {
		return nil, err
	}
	if !p.registered(req.SignPub) {
		return nil, ErrUnknownPseudonym
	}
	if int64(len(req.Coins)) != item.PriceCredits {
		return nil, fmt.Errorf("%w: got %d coins, price %d", ErrWrongPayment, len(req.Coins), item.PriceCredits)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Settle coins; stop at the first bad one. Already-deposited coins
	// stay deposited (the client pays for its own double-spend attempt).
	// No cancellation checks past this point: once money moves, the
	// purchase must complete so the client is never charged licenseless.
	for i, c := range req.Coins {
		if err := p.cfg.Bank.DepositCtx(ctx, p.cfg.BankAccount, c); err != nil {
			return nil, fmt.Errorf("provider: coin %d: %w", i, err)
		}
	}
	lic, err := p.issue(ctx, item, req.SignPub, req.EncPub)
	if err != nil {
		return nil, err
	}
	p.log(Event{
		Type:        EvPurchase,
		PseudonymFP: p.fingerprint(req.SignPub),
		ContentID:   item.ID,
		Serial:      lic.Serial.String(),
	})
	return lic, nil
}

// BatchResult is one IssueBatch outcome; results come back in request
// order, so position identifies the request.
type BatchResult struct {
	License *license.Personalized
	Err     error
}

// runBatch drives do(i) for every index in [0, n) on a bounded worker
// pool. Parallelism is bounded provider-wide by batchSlots, so any number
// of concurrent batch calls (purchase, exchange, redeem) together use at
// most GOMAXPROCS crypto workers and cannot starve single-request
// traffic. Indexes whose slot acquisition loses to context cancellation
// are reported through fail instead — don't queue for crypto on behalf
// of a caller that is already gone.
func (p *Provider) runBatch(ctx context.Context, n int, do func(i int), fail func(i int, err error)) {
	if n == 0 {
		return
	}
	workers := cap(p.batchSlots)
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				select {
				case p.batchSlots <- struct{}{}:
				case <-ctx.Done():
					fail(i, ctx.Err())
					continue
				}
				do(i)
				<-p.batchSlots
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// IssueBatch settles a slice of purchases on the shared worker pool and
// returns per-request outcomes in request order. Each purchase succeeds
// or fails independently; a cancelled context fails the requests that
// have not started crypto yet. The pool exists to amortize scheduling
// and lock overhead for bulk clients (storefront checkout carts, load
// generators).
func (p *Provider) IssueBatch(ctx context.Context, reqs []PurchaseRequest) []BatchResult {
	results := make([]BatchResult, len(reqs))
	p.runBatch(ctx, len(reqs),
		func(i int) {
			lic, err := p.Purchase(ctx, reqs[i])
			results[i] = BatchResult{License: lic, Err: err}
		},
		func(i int, err error) { results[i] = BatchResult{Err: err} })
	return results
}

// ExchangeItem is one ExchangeBatch entry, mirroring Exchange's
// arguments: a live license, an ownership proof bound to a fresh nonce,
// and the blinded anonymous serial to sign.
type ExchangeItem struct {
	License *license.Personalized
	Proof   *schnorr.Proof
	Nonce   string
	Blinded []byte
}

// ExchangeBatchResult is one ExchangeBatch outcome: exactly one of
// BlindSig and Err is set.
type ExchangeBatchResult struct {
	BlindSig []byte
	Err      error
}

// ExchangeBatch retires a slice of licenses on the shared worker pool,
// pairing purchase batching on the deposit side: bulk wallets retire a
// day's licenses in one call. Outcomes come back in request order; each
// item keeps Exchange's single-winner and revoke-before-sign semantics.
func (p *Provider) ExchangeBatch(ctx context.Context, items []ExchangeItem) []ExchangeBatchResult {
	results := make([]ExchangeBatchResult, len(items))
	// One combined Schnorr multi-exponentiation settles every well-formed
	// ownership proof up front; the per-item workers then skip their own
	// VerifyProof. Items the batch could not judge (nil license/proof)
	// verify inline as before.
	verdicts := p.preverifyExchangeProofs(items)
	p.runBatch(ctx, len(items),
		func(i int) {
			it := items[i]
			sig, err := p.exchange(ctx, it.License, it.Proof, it.Nonce, it.Blinded, verdicts[i])
			results[i] = ExchangeBatchResult{BlindSig: sig, Err: err}
		},
		func(i int, err error) { results[i] = ExchangeBatchResult{Err: err} })
	return results
}

// RedeemItem is one RedeemBatch entry, mirroring Redeem's arguments.
type RedeemItem struct {
	Anonymous *license.Anonymous
	SignPub   []byte
	EncPub    []byte
}

// RedeemBatchResult is one RedeemBatch outcome: exactly one of License
// and Err is set.
type RedeemBatchResult struct {
	License *license.Personalized
	Err     error
}

// RedeemBatch redeems a slice of anonymous licenses on the shared worker
// pool. Outcomes come back in request order; the durable redeemed-serial
// CAS still guarantees a single winner per serial, even when the same
// serial appears twice in one batch.
func (p *Provider) RedeemBatch(ctx context.Context, items []RedeemItem) []RedeemBatchResult {
	results := make([]RedeemBatchResult, len(items))
	p.runBatch(ctx, len(items),
		func(i int) {
			it := items[i]
			lic, err := p.Redeem(ctx, it.Anonymous, it.SignPub, it.EncPub)
			results[i] = RedeemBatchResult{License: lic, Err: err}
		},
		func(i int, err error) { results[i] = RedeemBatchResult{Err: err} })
	return results
}

// issue builds and signs a personalized license for item to a pseudonym.
// Both the KEM encapsulation in WrapKey and the RSA-FDH signature run
// without any provider lock.
func (p *Provider) issue(ctx context.Context, item *CatalogItem, signPub, encPub []byte) (*license.Personalized, error) {
	serial, err := license.NewSerial()
	if err != nil {
		return nil, err
	}
	encY := new(big.Int).SetBytes(encPub)
	kw, err := license.WrapKey(p.group, encY, item.contentKey,
		license.WrapLabelPersonalized(serial, item.ID))
	if err != nil {
		return nil, err
	}
	lic := &license.Personalized{
		Serial:     serial,
		ContentID:  item.ID,
		HolderSign: append([]byte(nil), signPub...),
		HolderEnc:  append([]byte(nil), encPub...),
		Rights:     item.Template.Clone(),
		KeyWrap:    kw,
		IssuedAt:   p.cfg.Clock().UTC().Truncate(time.Second),
	}
	sig, err := p.signer.Sign(lic.SigningBytes())
	if err != nil {
		return nil, err
	}
	lic.ProviderSig = sig
	// Persist the issuance so Exchange can later check the license is
	// live and was really issued here.
	if err := p.cfg.Store.PutCtx(ctx, []byte("issued:"+serial.String()), lic.Marshal()); err != nil {
		return nil, err
	}
	return lic, nil
}

// ExchangeContext is the proof context binding an exchange to a nonce and
// the license being given up.
func ExchangeContext(nonce string, serial license.Serial) []byte {
	return []byte("p2drm/exchange/v1|" + nonce + "|" + serial.String())
}

// Exchange retires a live personalized license and blind-signs the
// presented blinded anonymous-serial under the item's denomination key.
// The provider never sees the serial inside `blinded`.
func (p *Provider) Exchange(ctx context.Context, lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error) {
	return p.exchange(ctx, lic, proof, nonce, blinded, nil)
}

// exchange is Exchange with an optional pre-computed ownership-proof
// verdict from the batch verifier. The verdict is exactly what the
// inline VerifyProof would return for the same inputs, so every check
// still runs in the same order with the same errors.
func (p *Provider) exchange(ctx context.Context, lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte, verdict *proofVerdict) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.consumeNonce(nonce); err != nil {
		return nil, err
	}
	if err := license.VerifyPersonalized(p.Public(), lic); err != nil {
		return nil, err
	}
	// Only licenses this provider actually issued can be exchanged.
	stored, ok := p.cfg.Store.Get([]byte("issued:" + lic.Serial.String()))
	if !ok || !bytes.Equal(stored, lic.Marshal()) {
		return nil, errors.New("provider: license not on issuance record")
	}
	if p.rev.Contains(lic.Serial) {
		return nil, ErrLicenseRevoked
	}
	// Holder must prove ownership: stops theft-by-exchange of a copied
	// license file. Schnorr verification runs lock-free; batch callers
	// arrive with the verdict already settled by the combined check.
	proofErr := error(nil)
	if verdict != nil {
		proofErr = verdict.err
	} else {
		holderY := new(big.Int).SetBytes(lic.HolderSign)
		proofErr = schnorr.VerifyProof(p.group, holderY, ExchangeContext(nonce, lic.Serial), proof)
	}
	if proofErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, proofErr)
	}
	denomSigner, okd := p.denomSignerByContent(lic.ContentID)
	if !okd {
		return nil, ErrUnknownDenom
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Revoke first: if we crash between revoke and sign, the user lost a
	// license but gained nothing — recoverable at the provider's help
	// desk via the journal; the reverse order would mint free licenses.
	// TryAdd is also the double-exchange gate: the rev.Contains check
	// above is only a fast path, so of any number of concurrent
	// exchanges of one license, exactly one reaches the blind signature.
	fresh, err := p.rev.TryAdd(lic.Serial)
	if err != nil {
		return nil, err
	}
	if !fresh {
		return nil, ErrLicenseRevoked
	}
	blindSig, err := denomSigner.SignBlinded(blinded)
	if err != nil {
		return nil, err
	}
	bh := sha256.Sum256(blinded)
	p.log(Event{
		Type:        EvExchange,
		ContentID:   lic.ContentID,
		Serial:      lic.Serial.String(),
		BlindedHash: hex.EncodeToString(bh[:8]),
	})
	return blindSig, nil
}

// denomSignerByContent resolves a content id to its denomination signer
// under one short read lock.
func (p *Provider) denomSignerByContent(id license.ContentID) (*rsablind.Signer, bool) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	denom, ok := p.denomByC[id]
	if !ok {
		return nil, false
	}
	return p.denoms[denom], true
}

// redeemedKey marks consumed anonymous serials.
func redeemedKey(s license.Serial) []byte { return []byte("redeemed:" + s.String()) }

// Redeem verifies an anonymous license and issues a fresh personalized
// license to the presented (registered) pseudonym. Double redemption is
// blocked by an atomic insert into the durable redeemed-serial set: of
// any number of concurrent redemptions of one serial, exactly one wins.
func (p *Provider) Redeem(ctx context.Context, anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	denomSigner, item, ok := p.denomState(anon.Denom)
	if !ok || item == nil {
		return nil, ErrUnknownDenom
	}
	// Signature check on the anonymous license: lock-free.
	if err := license.VerifyAnonymous(denomSigner.Public(), anon); err != nil {
		return nil, err
	}
	if !p.registered(signPub) {
		return nil, ErrUnknownPseudonym
	}
	// The double-spend gate. If issue() fails after this point the
	// serial stays burned — same recoverable-at-the-help-desk posture as
	// the revoke-before-sign ordering in Exchange.
	inserted, err := p.cfg.Store.PutIfAbsentCtx(ctx, redeemedKey(anon.Serial), []byte{1})
	if err != nil {
		return nil, err
	}
	if !inserted {
		return nil, ErrAlreadyRedeemed
	}
	lic, err := p.issue(ctx, item, signPub, encPub)
	if err != nil {
		return nil, err
	}
	p.log(Event{
		Type:        EvRedeem,
		PseudonymFP: p.fingerprint(signPub),
		ContentID:   item.ID,
		Serial:      lic.Serial.String(),
		AnonSerial:  anon.Serial.String(),
	})
	return lic, nil
}

// RevocationFilter exports the current signed filter for devices.
func (p *Provider) RevocationFilter() (*revocation.SignedFilter, error) {
	return p.rev.ExportFilter(p.signer, p.cfg.Clock())
}

// RebuildRevocationFilter forces a full revocation Bloom-filter rebuild
// and returns the resulting filter generation. Idempotent (a rebuild
// scans the exact durable store), so the REST plane may expose it as a
// resumable background operation.
func (p *Provider) RebuildRevocationFilter() uint64 { return p.rev.Rebuild() }

// RevocationSnapshot exports a signed Merkle snapshot plus the tree that
// serves inclusion ("this license is dead") proofs.
func (p *Provider) RevocationSnapshot() (*revocation.Snapshot, *merkle.Tree, error) {
	return p.rev.Snapshot(p.signer, p.cfg.Clock())
}

// Revoked reports whether a serial is revoked (help-desk path for devices
// that got a Bloom positive).
func (p *Provider) Revoked(s license.Serial) bool { return p.rev.Contains(s) }

// RevokedCount reports the revocation list size.
func (p *Provider) RevokedCount() int { return p.rev.Len() }

// CertifyDevice issues a compliance certificate.
func (p *Provider) CertifyDevice(deviceID, class string, pubY *big.Int) (*device.Certificate, error) {
	return device.Certify(p.signer, p.group, deviceID, class, pubY)
}

// BlindedHashForTest exposes the journal's blinded-blob encoding so
// linkage experiments and tests can recompute candidate hashes exactly as
// an adversarial provider would.
func BlindedHashForTest(blinded []byte) string {
	h := sha256.Sum256(blinded)
	return hex.EncodeToString(h[:8])
}
