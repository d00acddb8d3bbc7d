package httpapi

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"

	"p2drm/internal/kvstore"
	"p2drm/internal/payment"
)

// countingTransport counts round trips per path and fresh (not reused)
// connections, through httptrace.
type countingTransport struct {
	base     http.RoundTripper
	fresh    atomic.Int64
	withdraw atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/bank/withdraw") {
		c.withdraw.Add(1)
	}
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			c.fresh.Add(1)
		}
	}}
	return c.base.RoundTrip(r.WithContext(httptrace.WithClientTrace(r.Context(), trace)))
}

func countingClient(t *testing.T, url string, c *Client) *countingTransport {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	ct := &countingTransport{base: tr}
	c.HTTP = &http.Client{Transport: ct}
	return ct
}

// TestSDKReusesConnection: calls whose answer the SDK does not decode
// (Register, CreateAccount) still leave the keep-alive connection
// reusable, so a sequential client dials once.
func TestSDKReusesConnection(t *testing.T) {
	h := newV2Harness(t, Auth{})
	ct := countingClient(t, h.srv.URL, h.client)
	for i := uint32(0); i < 4; i++ {
		h.registerOverHTTP(t, i)
		if err := h.client.CreateAccount(fmt.Sprintf("acct-%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := ct.fresh.Load(); got != 1 {
		t.Errorf("%d connections dialed for 12 sequential requests, want 1", got)
	}
}

// registerOverHTTP runs registration through the client SDK.
func (h *v2Harness) registerOverHTTP(t *testing.T, index uint32) {
	t.Helper()
	(&harness{client: h.client, card: h.card}).registerOverHTTP(t, index)
}

// TestWithdrawCoinsOneRequest: the SDK mints n coins with one
// withdrawal request, and every coin verifies and spends.
func TestWithdrawCoinsOneRequest(t *testing.T) {
	h := newV2Harness(t, Auth{})
	ct := countingClient(t, h.srv.URL, h.client)
	coins, err := h.client.WithdrawCoins("alice", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(coins) != 5 {
		t.Fatalf("%d coins, want 5", len(coins))
	}
	if got := ct.withdraw.Load(); got != 1 {
		t.Errorf("%d withdraw requests for 5 coins, want 1", got)
	}
	if bal, _ := h.bank.Balance("alice"); bal != 45 {
		t.Errorf("balance = %d, want 45", bal)
	}
	if err := h.bank.DepositCoins(t.Context(), "provider", coins); err != nil {
		t.Fatalf("withdrawn coins do not spend: %v", err)
	}
}

// TestWithdrawBatchRejectsWhole: malformed, empty, over-cap, mixed and
// partly covered batches are refused as a whole — no debit, no
// signature — while the single-coin form keeps working on both
// versions.
func TestWithdrawBatchRejectsWhole(t *testing.T) {
	h := newV2Harness(t, Auth{})
	h.bank.CreateAccount("poor", 2)
	blinded := func(n int) []string {
		_, bs, err := payment.NewCoinRequests(h.bank.CoinPub(), rand.Reader, n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, n)
		for i, b := range bs {
			out[i] = b64(b)
		}
		return out
	}
	body := func(req WithdrawRequest) string {
		raw, _ := json.Marshal(req)
		return string(raw)
	}
	good := blinded(3)
	outOfRange := b64(h.bank.CoinPub().N.Bytes())
	for _, tc := range []struct {
		name, account, body string
		status              int
	}{
		{"bad base64 mid-batch", "alice", body(WithdrawRequest{BlindedBatch: []string{good[0], "%%%", good[2]}}), 400},
		{"empty element", "alice", body(WithdrawRequest{BlindedBatch: []string{good[0], ""}}), 400},
		{"empty batch", "alice", `{"account":"alice","blinded_batch":[]}`, 400},
		{"over cap", "alice", body(WithdrawRequest{BlindedBatch: make([]string, maxBatchItems+1)}), 400},
		{"both members", "alice", body(WithdrawRequest{Blinded: good[0], BlindedBatch: good[1:]}), 400},
		{"neither member", "alice", `{"account":"alice"}`, 400},
		{"out-of-range element mid-batch", "alice", body(WithdrawRequest{BlindedBatch: []string{good[0], outOfRange, good[2]}}), 403},
		{"balance covers part", "poor", body(WithdrawRequest{BlindedBatch: good}), 403},
	} {
		var req map[string]any
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		req["account"] = tc.account
		raw, _ := json.Marshal(req)
		for _, path := range []string{"/v1/bank/withdraw", "/v2/bank/withdraw"} {
			resp, err := http.Post(h.srv.URL+path, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s %s: status %d, want %d (%v)", tc.name, path, resp.StatusCode, tc.status, out)
			}
			if strings.Contains(fmt.Sprint(out), "blind_sig") {
				t.Errorf("%s %s: rejected answer carries signatures: %v", tc.name, path, out)
			}
		}
	}
	if bal, _ := h.bank.Balance("alice"); bal != 50 {
		t.Errorf("alice = %d after rejected batches, want 50", bal)
	}
	if bal, _ := h.bank.Balance("poor"); bal != 2 {
		t.Errorf("poor = %d after rejected batch, want 2", bal)
	}

	// The single-coin member still answers one blind signature.
	var resp WithdrawResponse
	if err := h.client.post("/v1/bank/withdraw", WithdrawRequest{Account: "alice", Blinded: good[0]}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.BlindSig == "" || resp.BlindSigs != nil {
		t.Errorf("single-coin answer = %+v", resp)
	}
	if err := h.client.postV2("/v2/bank/withdraw", WithdrawRequest{Account: "alice", BlindedBatch: good[1:]}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.BlindSigs) != 2 {
		t.Errorf("batch answer = %+v", resp)
	}
	if bal, _ := h.bank.Balance("alice"); bal != 47 {
		t.Errorf("alice = %d, want 47", bal)
	}
}

// FuzzWithdrawRequest drives arbitrary bodies through the withdraw
// endpoint core: it never panics, an error answer never debits, and a
// success debits exactly one credit per signature returned.
func FuzzWithdrawRequest(f *testing.F) {
	_, bk := keys()
	st, _ := kvstore.Open("")
	probe, err := payment.NewBank(bk, st)
	if err != nil {
		f.Fatal(err)
	}
	_, bs, err := payment.NewCoinRequests(probe.CoinPub(), rand.Reader, 2)
	if err != nil {
		f.Fatal(err)
	}
	one, two := b64(bs[0]), b64(bs[1])
	for _, seed := range []string{
		`{"account":"alice","blinded":"` + one + `"}`,
		`{"account":"alice","blinded_batch":["` + one + `","` + two + `"]}`,
		`{"account":"alice","blinded_batch":["` + one + `","%%"]}`,
		`{"account":"alice","blinded_batch":[]}`,
		`{"account":"ghost","blinded":"` + one + `"}`,
		`{"account":"alice","blinded":"` + one + `","blinded_batch":["` + two + `"]}`,
		`{"account":"alice","blinded_batch":[null,1]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		st, _ := kvstore.Open("")
		bank, err := payment.NewBank(bk, st)
		if err != nil {
			t.Fatal(err)
		}
		const funds = 3
		bank.CreateAccount("alice", funds)
		s := &Server{Bank: bank}
		out, apiErr := s.epWithdraw(httptest.NewRequest("POST", "/v2/bank/withdraw", bytes.NewReader(body)))
		bal, _ := bank.Balance("alice")
		if apiErr != nil {
			if out != nil || bal != funds {
				t.Fatalf("error answer %q debited %d (answer %v)", apiErr.msg, funds-bal, out)
			}
			return
		}
		resp := out.(WithdrawResponse)
		sigs := len(resp.BlindSigs)
		if resp.BlindSig != "" {
			sigs++
		}
		if sigs == 0 || int64(sigs) != funds-bal {
			t.Fatalf("success answered %d signatures, debited %d", sigs, funds-bal)
		}
	})
}
