package main

// The three workloads and their client-side state. Every request goes
// through the public SDK (httpapi.Client) and the client-side public
// crypto (smartcard, rsablind); none names a raw URL.

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/httpapi"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/smartcard"
)

// nUsers is the simulated user population of every workload.
const nUsers = 16

// user is one simulated user: a deterministic smartcard, a funded bank
// account and pseudonym 0, registered during setup.
type user struct {
	card            *smartcard.Card
	account         string
	signPub, encPub []byte
	next            atomic.Uint32 // last pseudonym index handed out
}

// session is one booted topology plus the client state a run uses.
type session struct {
	topo    *topology
	users   []*user
	provKey *rsa.PublicKey
	catalog []httpapi.CatalogEntry
	item    httpapi.CatalogEntry // the content playback and settle buy
	blobs   map[string][]byte    // content bytes browse expects back
	coins   []*payment.Coin      // settle's pre-withdrawn coins
	// spent is one redeemed anonymous license (playback), kept for the
	// post-run re-redeem check.
	spent atomic.Pointer[license.Anonymous]
}

// workload is one traffic mix.
type workload struct {
	// rates are the offered arrivals per second of the "op" class and,
	// when non-zero, of the replica "read" class.
	opRate, readRate float64
	// contentID is the catalog item bought by the write workloads.
	contentID string
	// batch is the settle batch size (items per PurchaseBatch).
	batch int
	// classes builds the run's arrival streams for seed.
	classes func(wl *workload, s *session, seed int64, seconds, nproc int) []class
	// setup prepares what the classes consume, after the common setup.
	setup func(s *session, classes []class) error
	// postCheck is the workload's own post-run check (nil for none).
	postCheck func(s *session) error
}

var workloads = map[string]*workload{
	"playback": {opRate: 40, contentID: "film-grey",
		classes: playbackClasses, postCheck: checkReRedeem},
	"browse": {opRate: 800,
		classes: browseClasses, setup: browseSetup},
	"settle": {opRate: 20, readRate: 100, contentID: "song-blue", batch: 4,
		classes: settleClasses, setup: settleSetup, postCheck: checkReSpend},
}

// replicaKinds are the request kinds served by the replica.
var replicaKinds = map[string]bool{"stats": true, "revocation_contains": true}

// classSeed derives one class's generator seed from the run seed.
func classSeed(seed int64, class string) int64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s", seed, class)))
	var v int64
	for _, b := range sum[:8] {
		v = v<<8 | int64(b)
	}
	return v
}

// probeSerial is the serial a device polls for revocation on behalf of
// a user: random-looking, never revoked.
func probeSerial(user int) license.Serial {
	var s license.Serial
	sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench/revcheck/%d", user)))
	copy(s[:], sum[:])
	return s
}

// newSession runs the common client setup on a booted topology: the
// catalog, the provider key, and nUsers funded users with pseudonym 0
// registered.
func newSession(t *topology, wl *workload, seed int64) (*session, error) {
	s := &session{topo: t}
	var err error
	if s.catalog, err = t.P.Catalog(); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if s.provKey, err = t.P.ProviderKey(); err != nil {
		return nil, fmt.Errorf("provider key: %w", err)
	}
	for _, e := range s.catalog {
		if e.ID == wl.contentID {
			s.item = e
		}
	}
	if wl.contentID != "" && s.item.ID == "" {
		return nil, fmt.Errorf("content %q not in the catalog", wl.contentID)
	}
	g := group()
	for i := 0; i < nUsers; i++ {
		var cardSeed [kdf.SeedLen]byte
		sum := sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/user/%d", seed, i)))
		copy(cardSeed[:], sum[:])
		u := &user{card: smartcard.New(g, cardSeed), account: fmt.Sprintf("user%02d", i)}
		if err := t.P.CreateAccount(u.account, 1_000_000); err != nil {
			return nil, fmt.Errorf("account %d: %w", i, err)
		}
		ps, err := u.card.Pseudonym(0)
		if err != nil {
			return nil, err
		}
		u.signPub, u.encPub = ps.SignPublic(g), ps.EncPublic(g)
		nonce, err := t.P.Challenge()
		if err != nil {
			return nil, fmt.Errorf("challenge: %w", err)
		}
		proof, err := u.card.Prove(0, provider.RegisterContext(nonce))
		if err != nil {
			return nil, err
		}
		if err := t.P.Register(u.signPub, u.encPub, proof, nonce); err != nil {
			return nil, fmt.Errorf("register user %d: %w", i, err)
		}
		s.users = append(s.users, u)
	}
	return s, nil
}

// verifyLicense checks a personalized license the provider returned:
// its signature under the provider key, its content and its holder.
func (s *session) verifyLicense(lic *license.Personalized, holder []byte) error {
	if err := license.VerifyPersonalized(s.provKey, lic); err != nil {
		return err
	}
	if string(lic.ContentID) != s.item.ID || !bytes.Equal(lic.HolderSign, holder) {
		return errors.New("license for the wrong content or holder")
	}
	return nil
}

// playback: each op is the paper's full multiparty flow. The buyer
// withdraws coins and purchases under pseudonym 0, exchanges the
// personalized license for a blind-signed anonymous one, and a distinct
// peer registers a fresh pseudonym and redeems it.
func playbackClasses(wl *workload, s *session, seed int64, seconds, nproc int) []class {
	sched := schedule(wl.opRate, seconds, classSeed(seed, "op"), func(r *mrand.Rand, a *arrival) {
		buyer := r.Intn(nUsers)
		a.kind = "playback"
		a.picks = []int{buyer, (buyer + 1 + r.Intn(nUsers-1)) % nUsers}
	})
	return []class{{name: "op", workers: nproc, sched: sched, do: s.playback}}
}

func (s *session) playback(w *worker, a arrival) error {
	buyer, peer := s.users[a.picks[0]], s.users[a.picks[1]]
	c, g, id := w.P, group(), license.ContentID(s.item.ID)

	end := w.span("sdk.withdraw")
	coins, err := c.WithdrawCoins(buyer.account, int(s.item.PriceCredits))
	end()
	if err != nil {
		return fmt.Errorf("withdraw: %w", err)
	}
	end = w.span("sdk.purchase")
	lic, err := c.Purchase(id, buyer.signPub, buyer.encPub, coins)
	end()
	if err != nil {
		return fmt.Errorf("purchase: %w", err)
	}
	end = w.span("sdk.denomination")
	denomPub, denomID, err := c.Denomination(id)
	end()
	if err != nil {
		return fmt.Errorf("denomination: %w", err)
	}
	serial, err := license.NewSerial()
	if err != nil {
		return err
	}
	end = w.span("rsablind.blind")
	blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	end()
	if err != nil {
		return err
	}
	end = w.span("sdk.challenge")
	nonce, err := c.Challenge()
	end()
	if err != nil {
		return fmt.Errorf("challenge: %w", err)
	}
	end = w.span("smartcard.prove")
	proof, err := buyer.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	end()
	if err != nil {
		return err
	}
	end = w.span("sdk.exchange")
	blindSig, err := c.Exchange(lic, proof, nonce, blinded)
	end()
	if err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	end = w.span("rsablind.unblind")
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	end()
	if err != nil {
		return err
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}

	idx := peer.next.Add(1)
	end = w.span("smartcard.pseudonym")
	ps, err := peer.card.Pseudonym(idx)
	end()
	if err != nil {
		return err
	}
	signPub, encPub := ps.SignPublic(g), ps.EncPublic(g)
	end = w.span("sdk.challenge")
	nonce, err = c.Challenge()
	end()
	if err != nil {
		return fmt.Errorf("challenge: %w", err)
	}
	end = w.span("smartcard.prove")
	proof, err = peer.card.Prove(idx, provider.RegisterContext(nonce))
	end()
	if err != nil {
		return err
	}
	end = w.span("sdk.register")
	err = c.Register(signPub, encPub, proof, nonce)
	end()
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	end = w.span("sdk.redeem")
	got, err := c.Redeem(anon, signPub, encPub)
	end()
	if err != nil {
		return fmt.Errorf("redeem: %w", err)
	}

	s.spent.CompareAndSwap(nil, anon)
	w.checks = append(w.checks, func() error {
		if err := s.verifyLicense(lic, buyer.signPub); err != nil {
			return fmt.Errorf("purchased license: %w", err)
		}
		if err := license.VerifyAnonymous(denomPub, anon); err != nil {
			return fmt.Errorf("anonymous license: %w", err)
		}
		if err := s.verifyLicense(got, signPub); err != nil {
			return fmt.Errorf("redeemed license: %w", err)
		}
		return nil
	})
	return nil
}

func notRevoked(r *httpapi.Client, serial license.Serial) error {
	revoked, err := r.RevocationContains(serial)
	if err == nil && revoked {
		err = errors.New("fresh serial reported revoked")
	}
	return err
}

// checkReRedeem presents one already-redeemed anonymous license again,
// under a fresh pseudonym; the provider must refuse it.
func checkReRedeem(s *session) error {
	anon := s.spent.Load()
	if anon == nil {
		return errors.New("no anonymous license was redeemed")
	}
	u, c, g := s.users[0], s.topo.P, group()
	idx := u.next.Add(1)
	ps, err := u.card.Pseudonym(idx)
	if err != nil {
		return err
	}
	nonce, err := c.Challenge()
	if err != nil {
		return err
	}
	proof, err := u.card.Prove(idx, provider.RegisterContext(nonce))
	if err != nil {
		return err
	}
	if err := c.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		return err
	}
	if _, err := c.Redeem(anon, ps.SignPublic(g), ps.EncPublic(g)); err == nil {
		return errors.New("a redeemed anonymous license was accepted twice")
	}
	return nil
}

// browse: read-only traffic. Catalog and content reads go to the
// primary; stats and revocation checks go to the replica.
var browseKinds = []string{"catalog", "content", "stats", "revocation_contains"}

func browseClasses(wl *workload, s *session, seed int64, seconds, nproc int) []class {
	sched := schedule(wl.opRate, seconds, classSeed(seed, "op"), func(r *mrand.Rand, a *arrival) {
		a.kind = browseKinds[r.Intn(len(browseKinds))]
		a.picks = []int{r.Intn(nUsers), r.Intn(1 << 16)}
	})
	return []class{{name: "op", workers: nproc, sched: sched, do: s.browse}}
}

func browseSetup(s *session, _ []class) error {
	s.blobs = make(map[string][]byte, len(s.catalog))
	for _, e := range s.catalog {
		b, err := s.topo.P.Content(license.ContentID(e.ID))
		if err != nil {
			return fmt.Errorf("content %s: %w", e.ID, err)
		}
		s.blobs[e.ID] = b
	}
	return nil
}

func (s *session) browse(w *worker, a arrival) error {
	switch a.kind {
	case "catalog":
		end := w.span("sdk.catalog")
		cat, err := w.P.Catalog()
		end()
		if err != nil {
			return err
		}
		w.checks = append(w.checks, func() error {
			if len(cat) != len(s.catalog) {
				return fmt.Errorf("catalog has %d items, want %d", len(cat), len(s.catalog))
			}
			return nil
		})
	case "content":
		id := s.catalog[a.picks[1]%len(s.catalog)].ID
		end := w.span("sdk.content")
		b, err := w.P.Content(license.ContentID(id))
		end()
		if err != nil {
			return err
		}
		w.checks = append(w.checks, func() error {
			if !bytes.Equal(b, s.blobs[id]) {
				return fmt.Errorf("content %s differs from setup", id)
			}
			return nil
		})
	case "stats":
		end := w.span("sdk.stats")
		st, err := w.R.Stats()
		end()
		if err != nil {
			return err
		}
		w.checks = append(w.checks, func() error {
			for _, name := range replicatedStores {
				if _, ok := st.Stores[name]; !ok {
					return fmt.Errorf("replica stats lack store %s", name)
				}
			}
			return nil
		})
	case "revocation_contains":
		defer w.span("sdk.revocation_contains")()
		return notRevoked(w.R, probeSerial(a.picks[0]))
	}
	return nil
}

// settle: each op is one PurchaseBatch of wl.batch items, paid with
// coins withdrawn and pseudonyms registered during setup, while devices
// poll the replica for revocation checks.
func settleClasses(wl *workload, s *session, seed int64, seconds, nproc int) []class {
	ops := schedule(wl.opRate, seconds, classSeed(seed, "op"), func(r *mrand.Rand, a *arrival) {
		a.kind = "purchase_batch"
		a.picks = make([]int, wl.batch)
		for j := range a.picks {
			a.picks[j] = r.Intn(nUsers)
		}
	})
	reads := schedule(wl.readRate, seconds, classSeed(seed, "read"), func(r *mrand.Rand, a *arrival) {
		a.kind = "revocation_contains"
		a.picks = []int{r.Intn(nUsers)}
	})
	opWorkers := max(1, nproc/2)
	return []class{
		{name: "op", workers: opWorkers, sched: ops, do: s.settle},
		{name: "read", workers: max(1, nproc-opWorkers), sched: reads, do: func(w *worker, a arrival) error {
			defer w.span("sdk.revocation_contains")()
			return notRevoked(w.R, probeSerial(a.picks[0]))
		}},
	}
}

// settleSetup withdraws every coin the schedule will spend, spread over
// the users' accounts and nproc concurrent withdrawers.
func settleSetup(s *session, classes []class) error {
	items := 0
	for _, a := range classes[0].sched {
		items += len(a.picks)
	}
	price := int(s.item.PriceCredits)
	s.coins = make([]*payment.Coin, items*price)
	per := (len(s.coins) + nUsers - 1) / nUsers
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		sem  = make(chan struct{}, classes[0].workers+classes[1].workers)
	)
	for i := 0; i < nUsers && i*per < len(s.coins); i++ {
		lo, hi := i*per, min(len(s.coins), (i+1)*per)
		wg.Add(1)
		sem <- struct{}{}
		go func(u *user) {
			defer wg.Done()
			defer func() { <-sem }()
			coins, err := s.topo.P.WithdrawCoins(u.account, hi-lo)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			copy(s.coins[lo:hi], coins)
		}(s.users[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *session) settle(w *worker, a arrival) error {
	price := int(s.item.PriceCredits)
	items := make([]httpapi.BatchPurchase, len(a.picks))
	for j, ui := range a.picks {
		u, k := s.users[ui], (a.seq*len(a.picks)+j)*price
		items[j] = httpapi.BatchPurchase{ContentID: license.ContentID(s.item.ID),
			SignPub: u.signPub, EncPub: u.encPub, Coins: s.coins[k : k+price]}
	}
	end := w.span("sdk.purchase_batch")
	lics, errs, err := w.P.PurchaseBatch(items)
	end()
	if err != nil {
		return err
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	w.checks = append(w.checks, func() error {
		for j, lic := range lics {
			if err := s.verifyLicense(lic, items[j].SignPub); err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
		}
		return nil
	})
	return nil
}

// checkReSpend pays again with the coins of the first settled item;
// the bank must refuse them as double-spent.
func checkReSpend(s *session) error {
	u, price := s.users[0], int(s.item.PriceCredits)
	if _, err := s.topo.P.Purchase(license.ContentID(s.item.ID), u.signPub, u.encPub, s.coins[:price]); err == nil {
		return errors.New("spent coins were accepted twice")
	}
	return nil
}
