// Package httpapi exposes the content provider over JSON/HTTP and gives
// clients an SDK speaking the same protocol, so the P2DRM parties can run
// in separate processes (cmd/p2drmd + cmd/p2drm).
//
// # Two API surfaces
//
// The production surface lives under /v2/ and follows snapd's REST
// design: every response is a uniform envelope
//
//	{"type":"sync","status-code":200,"result":...}
//	{"type":"async","status-code":202,"operation":"/v2/operations/ID","result":{...}}
//	{"type":"error","status-code":4xx,"result":{"message":"...","kind":"..."}}
//
// routes carry a minimum auth tier (guest read, authenticated user,
// trusted admin — see Auth), and every long-running action (compaction,
// revocation-list rebuild, bulk batch issuance, replica promotion and
// resync) answers 202 Accepted with an operation URL pollable at
// GET /v2/operations/{id}. Operations persist in the kvstore-backed
// ops.Registry, so an operation in flight when the daemon dies is still
// visible — resumed or marked aborted — after restart.
//
// The original /v1/ surface is kept as thin compatibility shims over
// the same endpoint cores: bare JSON bodies, `{"error":...}` failures,
// identical status codes. Each shim enforces the same auth tier as its
// /v2 equivalent, so configured tokens protect the whole surface (with
// no tokens configured both versions stay open). New clients should
// speak /v2/; docs/rest.md is the authoritative reference for both.
//
// # Wire conventions
//
// Binary artifacts (licenses, proofs, blinded blobs) travel
// base64-encoded inside JSON envelopes. The three batch endpoints share
// one shape: up to maxBatchItems slots, per-slot outcomes in request
// order (a malformed or failed slot never voids the rest), and the
// provider's shared worker pool underneath. Money moves differently: a
// withdrawal's blinded_batch (also up to maxBatchItems coins) and a
// purchase's coins are all or nothing, so one bad coin voids the whole
// debit or settlement.
package httpapi

import (
	"bytes"
	cryptorand "crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/ops"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
)

// Server wraps a provider with HTTP handlers. When Bank is non-nil the
// demo bank endpoints (account creation, blind withdrawal) are exposed
// too, so a single daemon can serve complete out-of-process flows.
type Server struct {
	api
	Provider *provider.Provider
	Bank     *payment.Bank
	// stores are the kvstore instances surfaced by stats, kv/get|has and
	// async compaction, keyed by a human-readable name (registered
	// before serving starts).
	stores map[string]*kvstore.Store
	// replicas are the replication sources served under replica/*,
	// keyed like stores (registered before serving starts).
	replicas map[string]*replica.Source
}

// NewServer builds the handler tree: the /v2/ envelope surface plus the
// /v1/ compatibility shims over the same endpoint cores.
func NewServer(p *provider.Provider) *Server {
	s := &Server{Provider: p, api: newAPI()}
	s.legacy("GET", "/v1/catalog", TierGuest, s.epCatalog)
	s.legacyRaw("GET", "/v1/content", TierGuest, s.handleContent)
	s.legacy("GET", "/v1/denomination", TierGuest, s.epDenomination)
	s.legacy("GET", "/v1/challenge", TierGuest, s.epChallenge)
	s.legacy("POST", "/v1/register", TierUser, s.epRegister)
	s.legacy("POST", "/v1/purchase", TierUser, s.epPurchase)
	s.legacy("POST", "/v1/purchase/batch", TierUser, s.epPurchaseBatch)
	s.legacy("POST", "/v1/exchange", TierUser, s.epExchange)
	s.legacy("POST", "/v1/exchange/batch", TierUser, s.epExchangeBatch)
	s.legacy("POST", "/v1/redeem", TierUser, s.epRedeem)
	s.legacy("POST", "/v1/redeem/batch", TierUser, s.epRedeemBatch)
	s.legacy("GET", "/v1/revocation/filter", TierGuest, s.epFilter)
	s.legacy("GET", "/v1/revocation/contains", TierGuest, s.epRevocationContains)
	s.legacy("GET", "/v1/stats", TierGuest, s.epStats)
	s.legacy("GET", "/v1/kv/get", TierGuest, s.epKVGet)
	s.legacy("GET", "/v1/kv/has", TierGuest, s.epKVHas)
	s.legacy("GET", "/v1/replica/manifest", TierGuest, s.epReplicaManifest)
	s.legacyRaw("GET", "/v1/replica/segment/{id}", TierGuest, s.handleReplicaSegment)
	s.legacy("POST", "/v1/replica/release", TierUser, s.epReplicaRelease)
	s.legacy("GET", "/v1/replica/status", TierGuest, s.epReplicaStatus)
	s.legacy("GET", "/v1/provider/key", TierGuest, s.epProviderKey)
	s.legacy("GET", "/v1/bank/coinkey", TierGuest, s.epCoinKey)
	s.legacy("POST", "/v1/bank/account", TierAdmin, s.epBankAccount)
	s.legacy("POST", "/v1/bank/withdraw", TierUser, s.epWithdraw)
	s.registerV2()
	if p != nil {
		s.registerCryptoMetrics()
		s.registerCryptoHealth()
	}
	return s
}

// WithBank attaches a demo bank.
func (s *Server) WithBank(b *payment.Bank) *Server {
	s.Bank = b
	return s
}

// WithStoreStats registers a kvstore under name for stats, kv reads and
// async compaction. Call before serving starts (registration is not
// synchronized).
func (s *Server) WithStoreStats(name string, st *kvstore.Store) *Server {
	if s.stores == nil {
		s.stores = make(map[string]*kvstore.Store)
	}
	s.stores[name] = st
	registerStoreMetrics(s.obs.Reg, name, st)
	registerStoreHealth(s.obs.Health, name, st)
	return s
}

// WithOps replaces the default volatile operations registry with reg —
// typically a kvstore-backed one so operations survive restarts. Call
// before serving starts.
func (s *Server) WithOps(reg *ops.Registry) *Server {
	s.ops = reg
	return s
}

// WithAuth installs the access policy (see Auth). Call before serving
// starts; the zero policy leaves the API open.
func (s *Server) WithAuth(a Auth) *Server {
	s.auth = a
	return s
}

// BankAccountRequest opens a funded demo account.
type BankAccountRequest struct {
	ID    string `json:"id"`
	Funds int64  `json:"funds"`
}

// WithdrawRequest requests blind-signed coins: one in Blinded, or up to
// maxBatchItems in BlindedBatch (set exactly one of the two). Either way
// the whole count is debited at once, or nothing is.
type WithdrawRequest struct {
	Account      string   `json:"account"`
	Blinded      string   `json:"blinded,omitempty"`
	BlindedBatch []string `json:"blinded_batch,omitempty"`
}

// WithdrawResponse carries the bank's blind signatures: BlindSig for a
// single-coin request, BlindSigs (in request order) for a batch.
type WithdrawResponse struct {
	BlindSig  string   `json:"blind_sig,omitempty"`
	BlindSigs []string `json:"blind_sigs,omitempty"`
}

func (s *Server) epProviderKey(r *http.Request) (any, *apiError) {
	pub := s.Provider.Public()
	return map[string]interface{}{"n": b64(pub.N.Bytes()), "e": pub.E}, nil
}

func (s *Server) epCoinKey(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	pub := s.Bank.CoinPub()
	return map[string]interface{}{"n": b64(pub.N.Bytes()), "e": pub.E}, nil
}

func (s *Server) epBankAccount(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	var req BankAccountRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if err := s.Bank.CreateAccount(req.ID, req.Funds); err != nil {
		return nil, errRejected(err)
	}
	return map[string]string{"status": "created"}, nil
}

func (s *Server) epWithdraw(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	var req WithdrawRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	blinded, apiErr := decodeWithdraw(req)
	if apiErr != nil {
		return nil, apiErr
	}
	sigs, err := s.Bank.WithdrawBatch(req.Account, blinded)
	if err != nil {
		return nil, errRejected(err)
	}
	if req.BlindedBatch == nil {
		return WithdrawResponse{BlindSig: b64(sigs[0])}, nil
	}
	resp := WithdrawResponse{BlindSigs: make([]string, len(sigs))}
	for i, sig := range sigs {
		resp.BlindSigs[i] = b64(sig)
	}
	return resp, nil
}

// decodeWithdraw checks the whole request shape — one of the two
// members, the batch cap, every base64 element — before the bank is
// asked to debit anything.
func decodeWithdraw(req WithdrawRequest) ([][]byte, *apiError) {
	if req.BlindedBatch == nil {
		blinded, err := unb64(req.Blinded)
		if err != nil || len(blinded) == 0 {
			return nil, errBadRequest(errors.New("httpapi: blinded must be a non-empty base64 coin"))
		}
		return [][]byte{blinded}, nil
	}
	if req.Blinded != "" {
		return nil, errBadRequest(errors.New("httpapi: set blinded or blinded_batch, not both"))
	}
	if e := checkBatchSize(len(req.BlindedBatch)); e != nil {
		return nil, e
	}
	out := make([][]byte, len(req.BlindedBatch))
	for i, w := range req.BlindedBatch {
		blinded, err := unb64(w)
		if err != nil || len(blinded) == 0 {
			return nil, errBadRequest(fmt.Errorf("httpapi: blinded_batch[%d] must be a non-empty base64 coin", i))
		}
		out[i] = blinded
	}
	return out, nil
}

// ProviderKey fetches the provider's license/revocation verification key.
// Clients should pin it on first use.
func (c *Client) ProviderKey() (*rsa.PublicKey, error) {
	var out struct {
		N string `json:"n"`
		E int    `json:"e"`
	}
	if err := c.get("/v1/provider/key", &out); err != nil {
		return nil, err
	}
	nBytes, err := unb64(out.N)
	if err != nil {
		return nil, err
	}
	return &rsa.PublicKey{N: new(big.Int).SetBytes(nBytes), E: out.E}, nil
}

// CoinKey fetches the bank's coin verification key.
func (c *Client) CoinKey() (*rsa.PublicKey, error) {
	var out struct {
		N string `json:"n"`
		E int    `json:"e"`
	}
	if err := c.get("/v1/bank/coinkey", &out); err != nil {
		return nil, err
	}
	nBytes, err := unb64(out.N)
	if err != nil {
		return nil, err
	}
	return &rsa.PublicKey{N: new(big.Int).SetBytes(nBytes), E: out.E}, nil
}

// CreateAccount opens a demo bank account.
func (c *Client) CreateAccount(id string, funds int64) error {
	return c.post("/v1/bank/account", BankAccountRequest{ID: id, Funds: funds}, nil)
}

// WithdrawCoins mints n coins over the wire: it blinds them all, sends
// them in one request (one per maxBatchItems coins), then unblinds and
// verifies each coin.
func (c *Client) WithdrawCoins(account string, n int) ([]*payment.Coin, error) {
	pub, err := c.CoinKey()
	if err != nil {
		return nil, err
	}
	coins := make([]*payment.Coin, 0, n)
	for len(coins) < n {
		reqs, blinded, err := payment.NewCoinRequests(pub, cryptorand.Reader, min(n-len(coins), maxBatchItems))
		if err != nil {
			return nil, err
		}
		wire := WithdrawRequest{Account: account, BlindedBatch: make([]string, len(blinded))}
		for i, b := range blinded {
			wire.BlindedBatch[i] = b64(b)
		}
		var resp WithdrawResponse
		if err := c.post("/v1/bank/withdraw", wire, &resp); err != nil {
			return nil, err
		}
		sigs := make([][]byte, len(resp.BlindSigs))
		for i, w := range resp.BlindSigs {
			if sigs[i], err = unb64(w); err != nil {
				return nil, err
			}
		}
		got, err := payment.FinishCoins(pub, reqs, sigs)
		if err != nil {
			return nil, err
		}
		coins = append(coins, got...)
	}
	return coins, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.api.serveHTTP(w, r) }

// Wire types.

type errorBody struct {
	Error string `json:"error"`
}

// CatalogEntry is a catalog row.
type CatalogEntry struct {
	ID           string `json:"id"`
	Title        string `json:"title"`
	PriceCredits int64  `json:"price_credits"`
	Rights       string `json:"rights"`
}

// DenominationInfo carries a denomination verification key.
type DenominationInfo struct {
	ContentID string `json:"content_id"`
	Denom     string `json:"denom"`
	N         string `json:"n"` // big-endian base64 modulus
	E         int    `json:"e"`
}

// RegisterRequest registers a pseudonym.
type RegisterRequest struct {
	SignPub string `json:"sign_pub"`
	EncPub  string `json:"enc_pub"`
	Proof   string `json:"proof"`
	Nonce   string `json:"nonce"`
}

// PurchaseRequest buys a license.
type PurchaseRequest struct {
	ContentID string   `json:"content_id"`
	SignPub   string   `json:"sign_pub"`
	EncPub    string   `json:"enc_pub"`
	Coins     []string `json:"coins"` // serial||sig, base64
}

// LicenseResponse returns a marshaled personalized license.
type LicenseResponse struct {
	License string `json:"license"`
}

// BatchPurchaseRequest carries several purchases settled as one call on
// the provider's worker pool.
type BatchPurchaseRequest struct {
	Purchases []PurchaseRequest `json:"purchases"`
}

// BatchPurchaseResult is one per-purchase outcome: exactly one of
// License and Error is set.
type BatchPurchaseResult struct {
	License string `json:"license,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchPurchaseResponse returns outcomes in request order.
type BatchPurchaseResponse struct {
	Results []BatchPurchaseResult `json:"results"`
}

// ExchangeRequest retires a license for a blind signature.
type ExchangeRequest struct {
	License string `json:"license"`
	Proof   string `json:"proof"`
	Nonce   string `json:"nonce"`
	Blinded string `json:"blinded"`
}

// ExchangeResponse carries the blind signature.
type ExchangeResponse struct {
	BlindSig string `json:"blind_sig"`
}

// BatchExchangeRequest carries several exchanges settled as one call on
// the provider's worker pool.
type BatchExchangeRequest struct {
	Exchanges []ExchangeRequest `json:"exchanges"`
}

// BatchExchangeResult is one per-exchange outcome: exactly one of
// BlindSig and Error is set.
type BatchExchangeResult struct {
	BlindSig string `json:"blind_sig,omitempty"`
	Error    string `json:"error,omitempty"`
}

// BatchExchangeResponse returns outcomes in request order.
type BatchExchangeResponse struct {
	Results []BatchExchangeResult `json:"results"`
}

// RedeemRequest redeems an anonymous license.
type RedeemRequest struct {
	Anonymous string `json:"anonymous"`
	SignPub   string `json:"sign_pub"`
	EncPub    string `json:"enc_pub"`
}

// BatchRedeemRequest carries several redemptions settled as one call on
// the provider's worker pool.
type BatchRedeemRequest struct {
	Redeems []RedeemRequest `json:"redeems"`
}

// BatchRedeemResult is one per-redeem outcome: exactly one of License
// and Error is set.
type BatchRedeemResult struct {
	License string `json:"license,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchRedeemResponse returns outcomes in request order.
type BatchRedeemResponse struct {
	Results []BatchRedeemResult `json:"results"`
}

// FilterResponse carries a signed revocation filter.
type FilterResponse struct {
	Filter   string    `json:"filter"`
	IssuedAt time.Time `json:"issued_at"`
	Sig      string    `json:"sig"`
}

// StatsResponse reports per-store kvstore engine statistics (segments,
// live keys, dead bytes, compactions), keyed by the name each store was
// registered under, plus — on primaries — the crypto acceleration
// gauges (precompute state, nonce/blinding pool depth and hit rate,
// batch proof-verification counters). Replicas leave Crypto unset.
type StatsResponse struct {
	Stores map[string]kvstore.Stats `json:"stores"`
	Crypto *provider.CryptoStats    `json:"crypto,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func unb64(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

func (s *Server) epCatalog(r *http.Request) (any, *apiError) {
	items := s.Provider.Catalog()
	out := make([]CatalogEntry, 0, len(items))
	for _, it := range items {
		out = append(out, CatalogEntry{
			ID: string(it.ID), Title: it.Title,
			PriceCredits: it.PriceCredits, Rights: it.Template.String(),
		})
	}
	return out, nil
}

// handleContent streams the encrypted blob; shared raw handler for both
// API versions (errFn shapes the failure body per surface).
func (s *Server) serveContent(w http.ResponseWriter, r *http.Request, errFn func(http.ResponseWriter, *apiError)) {
	item, err := s.Provider.Item(license.ContentID(r.URL.Query().Get("id")))
	if err != nil {
		errFn(w, errNotFound(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(item.Encrypted)
}

func (s *Server) handleContent(w http.ResponseWriter, r *http.Request) {
	s.serveContent(w, r, func(w http.ResponseWriter, e *apiError) { writeErr(w, e.status, e) })
}

func (s *Server) epDenomination(r *http.Request) (any, *apiError) {
	id := license.ContentID(r.URL.Query().Get("id"))
	pub, denom, err := s.Provider.DenomPublic(id)
	if err != nil {
		return nil, errNotFound(err)
	}
	return DenominationInfo{
		ContentID: string(id),
		Denom:     denom.String(),
		N:         b64(pub.N.Bytes()),
		E:         pub.E,
	}, nil
}

func (s *Server) epChallenge(r *http.Request) (any, *apiError) {
	nonce, err := s.Provider.Challenge(r.Context())
	if err != nil {
		return nil, errInternal(err)
	}
	return map[string]string{"nonce": nonce}, nil
}

func (s *Server) epRegister(r *http.Request) (any, *apiError) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	signPub, err1 := unb64(req.SignPub)
	encPub, err2 := unb64(req.EncPub)
	proofBytes, err3 := unb64(req.Proof)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, errBadRequest(errors.New("httpapi: bad base64 field"))
	}
	proof, err := schnorr.ParseProof(s.Provider.Group(), proofBytes)
	if err != nil {
		return nil, errBadRequest(err)
	}
	if err := s.Provider.Register(r.Context(), signPub, encPub, proof, req.Nonce); err != nil {
		return nil, errRejected(err)
	}
	return map[string]string{"status": "registered"}, nil
}

// encodeCoin flattens a coin for the wire.
func encodeCoin(c *payment.Coin) string {
	return b64(append(append([]byte(nil), c.Serial[:]...), c.Sig...))
}

func decodeCoin(s string) (*payment.Coin, error) {
	raw, err := unb64(s)
	if err != nil || len(raw) < payment.CoinSerialLen+1 {
		return nil, errors.New("httpapi: malformed coin")
	}
	var c payment.Coin
	copy(c.Serial[:], raw[:payment.CoinSerialLen])
	c.Sig = append([]byte(nil), raw[payment.CoinSerialLen:]...)
	return &c, nil
}

// decodePurchase converts one wire purchase into a provider request.
func decodePurchase(pr PurchaseRequest) (provider.PurchaseRequest, error) {
	signPub, err1 := unb64(pr.SignPub)
	encPub, err2 := unb64(pr.EncPub)
	if err1 != nil || err2 != nil {
		return provider.PurchaseRequest{}, errors.New("httpapi: bad base64 field")
	}
	coins := make([]*payment.Coin, 0, len(pr.Coins))
	for _, cs := range pr.Coins {
		c, err := decodeCoin(cs)
		if err != nil {
			return provider.PurchaseRequest{}, err
		}
		coins = append(coins, c)
	}
	return provider.PurchaseRequest{
		ContentID: license.ContentID(pr.ContentID),
		SignPub:   signPub, EncPub: encPub, Coins: coins,
	}, nil
}

func (s *Server) epPurchase(r *http.Request) (any, *apiError) {
	var req PurchaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	preq, err := decodePurchase(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	lic, err := s.Provider.Purchase(r.Context(), preq)
	if err != nil {
		return nil, errRejected(err)
	}
	return LicenseResponse{License: b64(lic.Marshal())}, nil
}

// maxBatchItems bounds one batch call's memory and response latency
// (purchase, exchange and redeem alike); CPU fairness across batches is
// enforced by the provider's shared worker semaphore, not by this cap.
const maxBatchItems = 256

// checkBatchSize enforces the shared batch-size bound.
func checkBatchSize(n int) *apiError {
	if n == 0 || n > maxBatchItems {
		return errBadRequest(fmt.Errorf("httpapi: batch size must be 1..%d", maxBatchItems))
	}
	return nil
}

// decodeSlots decodes each wire slot of a batch, reporting decode
// failures per slot through fail (one malformed entry must not void the
// rest), and returns the surviving items plus their original indexes so
// pool results can be mapped back to response slots.
func decodeSlots[W, I any](ws []W, decode func(W) (I, error), fail func(i int, err error)) (items []I, slots []int) {
	items = make([]I, 0, len(ws))
	slots = make([]int, 0, len(ws))
	for i, w := range ws {
		item, err := decode(w)
		if err != nil {
			fail(i, err)
			continue
		}
		items = append(items, item)
		slots = append(slots, i)
	}
	return items, slots
}

func (s *Server) epPurchaseBatch(r *http.Request) (any, *apiError) {
	var req BatchPurchaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Purchases)); e != nil {
		return nil, e
	}
	resp := BatchPurchaseResponse{Results: make([]BatchPurchaseResult, len(req.Purchases))}
	reqs, slots := decodeSlots(req.Purchases, decodePurchase,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.IssueBatch(r.Context(), reqs) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		resp.Results[i].License = b64(res.License.Marshal())
	}
	return resp, nil
}

// decodeExchange converts one wire exchange into a provider item.
func (s *Server) decodeExchange(er ExchangeRequest) (provider.ExchangeItem, error) {
	licBytes, err1 := unb64(er.License)
	proofBytes, err2 := unb64(er.Proof)
	blinded, err3 := unb64(er.Blinded)
	if err1 != nil || err2 != nil || err3 != nil {
		return provider.ExchangeItem{}, errors.New("httpapi: bad base64 field")
	}
	lic, err := license.UnmarshalPersonalized(licBytes)
	if err != nil {
		return provider.ExchangeItem{}, err
	}
	proof, err := schnorr.ParseProof(s.Provider.Group(), proofBytes)
	if err != nil {
		return provider.ExchangeItem{}, err
	}
	return provider.ExchangeItem{License: lic, Proof: proof, Nonce: er.Nonce, Blinded: blinded}, nil
}

// decodeRedeem converts one wire redeem into a provider item.
func decodeRedeem(rr RedeemRequest) (provider.RedeemItem, error) {
	anonBytes, err1 := unb64(rr.Anonymous)
	signPub, err2 := unb64(rr.SignPub)
	encPub, err3 := unb64(rr.EncPub)
	if err1 != nil || err2 != nil || err3 != nil {
		return provider.RedeemItem{}, errors.New("httpapi: bad base64 field")
	}
	anon, err := license.UnmarshalAnonymous(anonBytes)
	if err != nil {
		return provider.RedeemItem{}, err
	}
	return provider.RedeemItem{Anonymous: anon, SignPub: signPub, EncPub: encPub}, nil
}

func (s *Server) epExchange(r *http.Request) (any, *apiError) {
	var req ExchangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	item, err := s.decodeExchange(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	blindSig, err := s.Provider.Exchange(r.Context(), item.License, item.Proof, item.Nonce, item.Blinded)
	if err != nil {
		return nil, errRejected(err)
	}
	return ExchangeResponse{BlindSig: b64(blindSig)}, nil
}

func (s *Server) epExchangeBatch(r *http.Request) (any, *apiError) {
	var req BatchExchangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Exchanges)); e != nil {
		return nil, e
	}
	resp := BatchExchangeResponse{Results: make([]BatchExchangeResult, len(req.Exchanges))}
	items, slots := decodeSlots(req.Exchanges, s.decodeExchange,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.ExchangeBatch(r.Context(), items) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		resp.Results[i].BlindSig = b64(res.BlindSig)
	}
	return resp, nil
}

func (s *Server) epRedeem(r *http.Request) (any, *apiError) {
	var req RedeemRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	item, err := decodeRedeem(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	lic, err := s.Provider.Redeem(r.Context(), item.Anonymous, item.SignPub, item.EncPub)
	if err != nil {
		return nil, errRejected(err)
	}
	return LicenseResponse{License: b64(lic.Marshal())}, nil
}

func (s *Server) epRedeemBatch(r *http.Request) (any, *apiError) {
	var req BatchRedeemRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Redeems)); e != nil {
		return nil, e
	}
	resp := BatchRedeemResponse{Results: make([]BatchRedeemResult, len(req.Redeems))}
	items, slots := decodeSlots(req.Redeems, decodeRedeem,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.RedeemBatch(r.Context(), items) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		resp.Results[i].License = b64(res.License.Marshal())
	}
	return resp, nil
}

func (s *Server) epStats(r *http.Request) (any, *apiError) {
	resp := StatsResponse{Stores: make(map[string]kvstore.Stats, len(s.stores))}
	for name, st := range s.stores {
		resp.Stores[name] = st.Stats()
	}
	if s.Provider != nil {
		resp.Crypto = s.Provider.CryptoStats()
	}
	return resp, nil
}

func (s *Server) epFilter(r *http.Request) (any, *apiError) {
	sf, err := s.Provider.RevocationFilter()
	if err != nil {
		return nil, errInternal(err)
	}
	return FilterResponse{
		Filter: b64(sf.Filter), IssuedAt: sf.IssuedAt, Sig: b64(sf.Sig),
	}, nil
}

// epRevocationContains is the primary's exact-answer revocation check,
// mirroring the replica endpoint so clients can point the same call at
// either tier: the bloom filter is the offline approximation, this is
// the authoritative store lookup.
func (s *Server) epRevocationContains(r *http.Request) (any, *apiError) {
	raw, err := base64.URLEncoding.DecodeString(r.URL.Query().Get("serial"))
	var serial license.Serial
	if err != nil || len(raw) != len(serial) {
		return nil, errBadRequest(errors.New("httpapi: bad serial (want base64url of exact length)"))
	}
	copy(serial[:], raw)
	return KVValueResponse{Found: s.Provider.Revoked(serial)}, nil
}

// Client is the SDK speaking to a Server. The /v1 helpers talk bare
// JSON; the /v2 helpers (client_v2.go) speak the envelope and attach
// Token as a bearer credential when set.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Group   *schnorr.Group
	// Token is the bearer credential sent on /v2 requests (empty for
	// guest access).
	Token string
}

// NewClient builds a client; group must match the server's.
func NewClient(baseURL string, g *schnorr.Group) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient, Group: g}
}

// newReq builds a request against BaseURL with the client's bearer
// token attached — the same credential serves both API versions, since
// the server enforces the same tiers on /v1 and /v2.
func (c *Client) newReq(method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return req, nil
}

func (c *Client) get(path string, out interface{}) error {
	req, err := c.newReq("GET", path, nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

func (c *Client) post(path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := c.newReq("POST", path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

// maxDrain bounds how much of an unread response body decodeResp
// discards so the transport can reuse the keep-alive connection; a
// larger remainder costs the connection instead.
const maxDrain = 64 << 10

func decodeResp(resp *http.Response, out interface{}) error {
	defer io.Copy(io.Discard, io.LimitReader(resp.Body, maxDrain))
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			return fmt.Errorf("httpapi: server: %s", eb.Error)
		}
		return fmt.Errorf("httpapi: status %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Catalog lists items.
func (c *Client) Catalog() ([]CatalogEntry, error) {
	var out []CatalogEntry
	return out, c.get("/v1/catalog", &out)
}

// Content downloads an encrypted content blob.
func (c *Client) Content(id license.ContentID) ([]byte, error) {
	req, err := c.newReq("GET", "/v1/content?id="+string(id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("httpapi: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// Denomination fetches an item's blind-signature verification key.
func (c *Client) Denomination(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error) {
	var info DenominationInfo
	if err := c.get("/v1/denomination?id="+string(id), &info); err != nil {
		return nil, license.DenominationID{}, err
	}
	nBytes, err := unb64(info.N)
	if err != nil {
		return nil, license.DenominationID{}, err
	}
	var denom license.DenominationID
	db, err := unb64From(info.Denom)
	if err != nil || len(db) != len(denom) {
		return nil, license.DenominationID{}, errors.New("httpapi: bad denomination id")
	}
	copy(denom[:], db)
	return &rsa.PublicKey{N: new(big.Int).SetBytes(nBytes), E: info.E}, denom, nil
}

// unb64From parses the hex denomination id (DenominationID.String is hex).
func unb64From(hexStr string) ([]byte, error) {
	out := make([]byte, len(hexStr)/2)
	_, err := fmt.Sscanf(hexStr, "%x", &out)
	return out, err
}

// Challenge fetches a nonce.
func (c *Client) Challenge() (string, error) {
	var out map[string]string
	if err := c.get("/v1/challenge", &out); err != nil {
		return "", err
	}
	return out["nonce"], nil
}

// Register registers a pseudonym.
func (c *Client) Register(signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	req := RegisterRequest{
		SignPub: b64(signPub), EncPub: b64(encPub),
		Proof: b64(proof.Bytes(c.Group)), Nonce: nonce,
	}
	return c.post("/v1/register", req, nil)
}

// Purchase buys a license with coins.
func (c *Client) Purchase(id license.ContentID, signPub, encPub []byte, coins []*payment.Coin) (*license.Personalized, error) {
	req := PurchaseRequest{ContentID: string(id), SignPub: b64(signPub), EncPub: b64(encPub)}
	for _, coin := range coins {
		req.Coins = append(req.Coins, encodeCoin(coin))
	}
	var resp LicenseResponse
	if err := c.post("/v1/purchase", req, &resp); err != nil {
		return nil, err
	}
	raw, err := unb64(resp.License)
	if err != nil {
		return nil, err
	}
	return license.UnmarshalPersonalized(raw)
}

// BatchPurchase is one typed entry for Client.PurchaseBatch, mirroring
// the arguments of Client.Purchase.
type BatchPurchase struct {
	ContentID license.ContentID
	SignPub   []byte
	EncPub    []byte
	Coins     []*payment.Coin
}

// PurchaseBatch buys several licenses in one round trip. Outcomes come
// back in request order; per-item failures are returned as errors in the
// slice, not as a call-level error.
func (c *Client) PurchaseBatch(items []BatchPurchase) ([]*license.Personalized, []error, error) {
	reqs := encodePurchases(items)
	var resp BatchPurchaseResponse
	if err := c.post("/v1/purchase/batch", BatchPurchaseRequest{Purchases: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	return decodePurchaseResults(resp, len(reqs))
}

func encodePurchases(items []BatchPurchase) []PurchaseRequest {
	reqs := make([]PurchaseRequest, len(items))
	for i, it := range items {
		reqs[i] = PurchaseRequest{
			ContentID: string(it.ContentID), SignPub: b64(it.SignPub), EncPub: b64(it.EncPub),
		}
		for _, coin := range it.Coins {
			reqs[i].Coins = append(reqs[i].Coins, encodeCoin(coin))
		}
	}
	return reqs
}

func decodePurchaseResults(resp BatchPurchaseResponse, want int) ([]*license.Personalized, []error, error) {
	if len(resp.Results) != want {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), want)
	}
	lics := make([]*license.Personalized, want)
	errs := make([]error, want)
	for i, res := range resp.Results {
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		raw, err := unb64(res.License)
		if err != nil {
			errs[i] = err
			continue
		}
		if lics[i], err = license.UnmarshalPersonalized(raw); err != nil {
			errs[i] = err
		}
	}
	return lics, errs, nil
}

// Exchange retires a license for a blind signature over blinded.
func (c *Client) Exchange(lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error) {
	req := ExchangeRequest{
		License: b64(lic.Marshal()), Proof: b64(proof.Bytes(c.Group)),
		Nonce: nonce, Blinded: b64(blinded),
	}
	var resp ExchangeResponse
	if err := c.post("/v1/exchange", req, &resp); err != nil {
		return nil, err
	}
	return unb64(resp.BlindSig)
}

// BatchExchange is one typed entry for Client.ExchangeBatch, mirroring
// the arguments of Client.Exchange.
type BatchExchange struct {
	License *license.Personalized
	Proof   *schnorr.Proof
	Nonce   string
	Blinded []byte
}

// ExchangeBatch retires several licenses in one round trip. Blind
// signatures come back in request order; per-item failures are returned
// as errors in the slice, not as a call-level error.
func (c *Client) ExchangeBatch(items []BatchExchange) ([][]byte, []error, error) {
	reqs := make([]ExchangeRequest, len(items))
	for i, it := range items {
		reqs[i] = ExchangeRequest{
			License: b64(it.License.Marshal()), Proof: b64(it.Proof.Bytes(c.Group)),
			Nonce: it.Nonce, Blinded: b64(it.Blinded),
		}
	}
	var resp BatchExchangeResponse
	if err := c.post("/v1/exchange/batch", BatchExchangeRequest{Exchanges: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	sigs := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	for i, res := range resp.Results {
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		var err error
		if sigs[i], err = unb64(res.BlindSig); err != nil {
			errs[i] = err
		}
	}
	return sigs, errs, nil
}

// Redeem converts an anonymous license into a personalized one.
func (c *Client) Redeem(anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	req := RedeemRequest{Anonymous: b64(anon.Marshal()), SignPub: b64(signPub), EncPub: b64(encPub)}
	var resp LicenseResponse
	if err := c.post("/v1/redeem", req, &resp); err != nil {
		return nil, err
	}
	raw, err := unb64(resp.License)
	if err != nil {
		return nil, err
	}
	return license.UnmarshalPersonalized(raw)
}

// BatchRedeem is one typed entry for Client.RedeemBatch, mirroring the
// arguments of Client.Redeem.
type BatchRedeem struct {
	Anonymous *license.Anonymous
	SignPub   []byte
	EncPub    []byte
}

// RedeemBatch redeems several anonymous licenses in one round trip.
// Licenses come back in request order; per-item failures are returned as
// errors in the slice, not as a call-level error.
func (c *Client) RedeemBatch(items []BatchRedeem) ([]*license.Personalized, []error, error) {
	reqs := make([]RedeemRequest, len(items))
	for i, it := range items {
		reqs[i] = RedeemRequest{
			Anonymous: b64(it.Anonymous.Marshal()),
			SignPub:   b64(it.SignPub), EncPub: b64(it.EncPub),
		}
	}
	var resp BatchRedeemResponse
	if err := c.post("/v1/redeem/batch", BatchRedeemRequest{Redeems: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	lics := make([]*license.Personalized, len(reqs))
	errs := make([]error, len(reqs))
	for i, res := range resp.Results {
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		raw, err := unb64(res.License)
		if err != nil {
			errs[i] = err
			continue
		}
		if lics[i], err = license.UnmarshalPersonalized(raw); err != nil {
			errs[i] = err
		}
	}
	return lics, errs, nil
}

// Stats fetches the daemon's kvstore engine statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/v1/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RevocationFilter fetches and reassembles the signed filter.
func (c *Client) RevocationFilter() (*revocation.SignedFilter, error) {
	var resp FilterResponse
	if err := c.get("/v1/revocation/filter", &resp); err != nil {
		return nil, err
	}
	filter, err1 := unb64(resp.Filter)
	sig, err2 := unb64(resp.Sig)
	if err1 != nil || err2 != nil {
		return nil, errors.New("httpapi: bad filter encoding")
	}
	return &revocation.SignedFilter{Filter: filter, IssuedAt: resp.IssuedAt, Sig: sig}, nil
}
