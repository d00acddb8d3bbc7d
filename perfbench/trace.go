package main

// In-memory tracing from the benchmark's own side of every layer
// boundary: one root span per op (from its scheduled arrival to its
// completion), a generator-wait child, a child around every SDK call
// and every client crypto call, and under each SDK call one span per
// HTTP round trip. Spans stay in memory during the run and are written
// out when it ends.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"time"
)

// span is one timed interval of a traced op.
type span struct {
	name       string
	parent     int // index in opTrace.spans; -1 for the root
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// opTrace holds the spans of one traced op; spans[0] is the root.
type opTrace struct {
	class string
	spans []span
	open  int // innermost unfinished span
}

func newOpTrace(class string, at time.Time) *opTrace {
	return &opTrace{class: class, spans: []span{{name: "op", parent: -1, start: at}}}
}

func (t *opTrace) begin(name string, at time.Time) int {
	t.spans = append(t.spans, span{name: name, parent: t.open, start: at})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *opTrace) finish(i int, at time.Time) {
	t.spans[i].end = at
	t.open = t.spans[i].parent
}

func noop() {}

// span opens a child span of the worker's current op and returns the
// function that closes it; with no op traced it costs one nil check.
func (w *worker) span(name string) func() {
	if w.tr == nil {
		return noop
	}
	i := w.tr.begin(name, time.Now())
	return func() { w.tr.finish(i, time.Now()) }
}

// timedTransport is the SDK's default transport with one span per
// round trip, named after the route. The span ends when the response
// headers arrive; reading and decoding the body is SDK time.
type timedTransport struct{ w *worker }

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	defer t.w.span("http." + routeName(r.URL.Path))()
	return http.DefaultTransport.RoundTrip(r)
}

// routes maps each route the workloads call to the short name used in
// metric names; the SDK call of the same name issues it (WithdrawCoins
// also fetches the coin key).
var routes = map[string]string{
	"/v1/catalog":             "catalog",
	"/v1/content":             "content",
	"/v1/stats":               "stats",
	"/v1/revocation/contains": "revocation_contains",
	"/v1/challenge":           "challenge",
	"/v1/register":            "register",
	"/v1/bank/withdraw":       "withdraw",
	"/v1/bank/coinkey":        "coinkey",
	"/v1/denomination":        "denomination",
	"/v1/purchase":            "purchase",
	"/v1/exchange":            "exchange",
	"/v1/redeem":              "redeem",
	"/v1/purchase/batch":      "purchase_batch",
}

func routeName(path string) string {
	if n, ok := routes[path]; ok {
		return n
	}
	return strings.Trim(strings.ReplaceAll(path, "/", "_"), "_")
}

// writeTraces writes every traced op as one JSON line: the class and
// its spans with offsets from the root's start, in microseconds.
func writeTraces(path string, traces []*opTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type jspan struct {
		Name    string  `json:"name"`
		Parent  int     `json:"parent"`
		StartUS float64 `json:"start_us"`
		DurUS   float64 `json:"dur_us"`
	}
	for _, t := range traces {
		root := t.spans[0].start
		js := make([]jspan, len(t.spans))
		for i, s := range t.spans {
			js[i] = jspan{s.name, s.parent, float64(s.start.Sub(root)) / 1e3, float64(s.dur()) / 1e3}
		}
		if err := enc.Encode(struct {
			Class string  `json:"class"`
			Spans []jspan `json:"spans"`
		}{t.class, js}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
