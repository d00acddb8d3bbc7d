package main

// End-to-end and per-layer metrics. Every layer is measured from
// outside: the driver times its own calls into public functions
// (trace.go) and diffs the daemons' public /v2/metrics scrapes.

import (
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2drm/internal/obs"
	"p2drm/internal/workload/hist"
)

type metric struct {
	name, unit string
	value      float64
}

// sdkCalls are the SDK calls the workloads make; serverRoutes adds the
// coin-key fetch WithdrawCoins makes on its own.
var (
	sdkCalls = []string{"catalog", "content", "stats", "revocation_contains", "challenge",
		"register", "withdraw", "denomination", "purchase", "exchange", "redeem", "purchase_batch"}
	serverRoutes = append(append([]string(nil), sdkCalls...), "coinkey")
	cryptoCalls  = []string{"smartcard.prove", "smartcard.pseudonym", "rsablind.blind", "rsablind.unblind"}
	// kvStores are the primary's stores the workloads write. The ops
	// store is left out: the SDK calls used here are synchronous and
	// never write an operation record.
	kvStores = []string{"provider", "bank"}
)

// routePath is the registered route pattern of a route name.
func routePath(name string) string {
	for p, n := range routes {
		if n == name {
			return p
		}
	}
	return ""
}

// quantile is the q-quantile of d in nanoseconds, interpolating
// linearly between order statistics; 0 for no samples.
func quantile(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

func ms(ns float64) float64 { return ns / 1e6 }

// delta is the change of a counter or gauge between two scrapes,
// summed over the series matching match.
func delta(a, b *obs.Metrics, name string, match map[string]string) float64 {
	if a == nil || b == nil {
		return 0
	}
	x, _ := a.SumValues(name, match)
	y, _ := b.SumValues(name, match)
	return y - x
}

// bucketCounts turns one scrape's cumulative buckets of a histogram
// family into per-bucket counts keyed by upper bound in nanoseconds,
// summed over the series matching match.
func bucketCounts(m *obs.Metrics, name string, match map[string]string) map[int64]float64 {
	type bucket struct {
		le  int64
		cum float64
	}
	series := map[string][]bucket{}
	for _, s := range m.Samples {
		if s.Name != name+"_bucket" || s.Labels["le"] == "+Inf" || !matches(s, match) {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue
		}
		var key []string
		for k, v := range s.Labels {
			if k != "le" {
				key = append(key, k+"="+v)
			}
		}
		sort.Strings(key)
		sig := strings.Join(key, ",")
		series[sig] = append(series[sig], bucket{int64(math.Round(le * 1e9)), s.Value})
	}
	out := map[int64]float64{}
	for _, bs := range series {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		prev := 0.0
		for _, b := range bs {
			out[b.le] += b.cum - prev
			prev = b.cum
		}
	}
	return out
}

func matches(s obs.Sample, match map[string]string) bool {
	for k, v := range match {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// scrapeQuantile is the q-quantile in milliseconds of the observations
// a _seconds histogram family gained between scrapes a and b. Within a
// bucket it interpolates linearly between the bucket's bounds, so the
// figure is not pinned to a bucket edge.
func scrapeQuantile(a, b *obs.Metrics, name string, match map[string]string, q float64) float64 {
	if a == nil || b == nil {
		return 0
	}
	counts := bucketCounts(b, name, match)
	for le, c := range bucketCounts(a, name, match) {
		counts[le] -= c
	}
	les := make([]int64, 0, len(counts))
	var n float64
	for le, c := range counts {
		if c > 0 {
			les = append(les, le)
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	target, cum := q*n, 0.0
	for _, le := range les {
		c := counts[le]
		if cum+c >= target {
			low := le - hist.RelativeError(le)
			return ms(float64(low) + (target-cum)/c*float64(le-low))
		}
		cum += c
	}
	return ms(float64(les[len(les)-1]))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window is one slice of the timed phase: the latencies of the
// successful unit ops and replica reads scheduled in it, and the CPU
// both daemons used during it.
type window struct {
	op, read []time.Duration
	cpu      time.Duration
}

// medianOver is the median across windows of f, skipping windows
// where f has nothing to measure.
func (m *measurement) medianOver(f func(w window) (time.Duration, bool)) float64 {
	var vs []time.Duration
	for _, w := range m.win {
		if v, ok := f(w); ok {
			vs = append(vs, v)
		}
	}
	return quantile(vs, 0.5)
}

// latencyMS is the median across windows of the q-quantile of the
// latencies pick selects.
func (m *measurement) latencyMS(pick func(w window) []time.Duration, q float64) float64 {
	return ms(m.medianOver(func(w window) (time.Duration, bool) {
		l := pick(w)
		return time.Duration(quantile(l, q)), len(l) > 0
	}))
}

func opLatencies(w window) []time.Duration   { return w.op }
func readLatencies(w window) []time.Duration { return w.read }

// measurement is everything one run observed.
type measurement struct {
	run      *loadRun
	elapsed  time.Duration // run start to last completion
	setups   []time.Duration
	unitOps  float64 // successful unit ops
	cpuP     time.Duration
	cpuR     time.Duration
	cpuSelf  time.Duration
	rssP     float64
	rssR     float64
	sockets  int // new client sockets to the daemons during the run
	lagEnd   int64
	catchup  time.Duration
	stealMS  float64
	loadAvg1 float64
	pa, pb   *obs.Metrics // primary scrapes before and after
	ra, rb   *obs.Metrics // replica scrapes before and after
	win      []window
	untraced []time.Duration // unit-op latencies of untraced ops (trace mode)
	tracedOp []time.Duration // unit-op latencies of traced ops (trace mode)
}

func (m *measurement) endToEnd() []metric {
	return []metric{
		{"setup_s", "s", quantile(m.setups, 0.5) / 1e9},
		{"op_p50_ms", "ms", m.latencyMS(opLatencies, 0.50)},
		{"goodput_ops_s", "ops/s", ratio(m.unitOps, m.elapsed.Seconds())},
	}
}

// traceSummary folds the traced ops into per-name span durations and
// self times.
type traceSummary struct {
	byName   map[string][]time.Duration
	unitOps  float64       // traced unit ops
	rootDur  time.Duration // summed over traced unit ops
	rootSelf time.Duration // root time not covered by any child span
	sdkSelf  time.Duration // SDK span time not covered by its round trips
	httpDur  time.Duration
	httpN    float64
}

func summarize(traces []*opTrace) traceSummary {
	ts := traceSummary{byName: make(map[string][]time.Duration)}
	for _, t := range traces {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans[1:] {
			child[s.parent] += s.dur()
		}
		for i, s := range t.spans {
			switch {
			case i == 0:
				if t.class == "op" {
					ts.unitOps++
					ts.rootDur += s.dur()
					ts.rootSelf += s.dur() - child[0]
				}
				continue
			case strings.HasPrefix(s.name, "sdk."):
				ts.sdkSelf += s.dur() - child[i]
			case strings.HasPrefix(s.name, "http."):
				ts.httpDur += s.dur()
				ts.httpN++
			}
			ts.byName[s.name] = append(ts.byName[s.name], s.dur())
		}
	}
	return ts
}

func (ts traceSummary) perOp(v float64) float64 { return ratio(v, ts.unitOps) }

func (ts traceSummary) busyMS(name string) float64 {
	var sum time.Duration
	for _, d := range ts.byName[name] {
		sum += d
	}
	return ts.perOp(ms(float64(sum)))
}

// perLayer derives every per-layer metric, in a fixed order.
// scrapeDelta is the change of a sample between the before and after
// scrapes, summed over both daemons.
func (m *measurement) scrapeDelta(name string, match map[string]string) float64 {
	return delta(m.pa, m.pb, name, match) + delta(m.ra, m.rb, name, match)
}

func (m *measurement) perLayer() []metric {
	ts := summarize(m.run.traces)
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	for _, c := range cryptoCalls {
		add(c+"_ms", "ms/op", ts.busyMS(c))
		add(c+"_per_op", "count", ts.perOp(float64(len(ts.byName[c]))))
	}
	for _, c := range sdkCalls {
		add("sdk."+c+"_ms", "ms", ms(quantile(ts.byName["sdk."+c], 0.5)))
		add("sdk."+c+"_count", "count", ts.perOp(float64(len(ts.byName["sdk."+c]))))
	}
	add("sdk.self_ms_per_op", "ms/op", ts.perOp(ms(float64(ts.sdkSelf))))
	add("driver.self_ms_per_op", "ms/op", ts.perOp(ms(float64(ts.rootSelf))))

	// Server side: each route's duration histogram on both daemons.
	const lat = "p2drm_http_request_duration_seconds"
	var srvSum, srvCount float64
	for _, r := range serverRoutes {
		match := map[string]string{"route": routePath(r)}
		srv, cnt := m.scrapeDelta(lat+"_sum", match), m.scrapeDelta(lat+"_count", match)
		// Each route is served by one daemon; the other's delta is empty.
		p50 := max(scrapeQuantile(m.pa, m.pb, lat, match, 0.5), scrapeQuantile(m.ra, m.rb, lat, match, 0.5))
		srvSum += srv
		srvCount += cnt
		add("httpapi.server_ms."+r, "ms", p50)
		add("httpapi.server_count."+r, "count", ratio(cnt, m.unitOps))
	}
	add("httpapi.server_busy_ms_per_op", "ms/op", ratio(srvSum*1e3, m.unitOps))
	add("httpapi.transport_ms_per_req", "ms",
		ratio(ms(float64(ts.httpDur)), ts.httpN)-ratio(srvSum*1e3, srvCount))
	add("httpapi.conns_per_req", "count", ratio(float64(m.sockets), srvCount))

	d := func(name string) float64 { return delta(m.pa, m.pb, name, nil) }
	add("crypto.nonce_pool_hit_ratio", "ratio",
		ratio(d("p2drm_crypto_nonce_pool_hits_total"),
			d("p2drm_crypto_nonce_pool_hits_total")+d("p2drm_crypto_nonce_pool_misses_total")))
	add("crypto.blinding_pool_hit_ratio", "ratio",
		ratio(d("p2drm_crypto_blinding_pool_hits_total"),
			d("p2drm_crypto_blinding_pool_hits_total")+d("p2drm_crypto_blinding_pool_misses_total")))
	add("crypto.batch_verify_items_per_run", "count",
		ratio(d("p2drm_crypto_batch_verify_items_total"), d("p2drm_crypto_batch_verify_runs_total")))

	for _, st := range kvStores {
		match := map[string]string{"store": st}
		const fsync, wait = "p2drm_kvstore_fsync_duration_seconds", "p2drm_kvstore_commit_wait_seconds"
		fsyncs, waits := delta(m.pa, m.pb, fsync+"_count", match), delta(m.pa, m.pb, wait+"_count", match)
		p := "kvstore." + st + "."
		add(p+"fsyncs_per_op", "count", ratio(fsyncs, m.unitOps))
		add(p+"fsync_ms_p50", "ms", scrapeQuantile(m.pa, m.pb, fsync, match, 0.5))
		add(p+"commit_wait_ms_p50", "ms", scrapeQuantile(m.pa, m.pb, wait, match, 0.5))
		add(p+"commit_wait_ms_p99", "ms", scrapeQuantile(m.pa, m.pb, wait, match, 0.99))
		add(p+"commits_per_fsync", "ratio", ratio(waits, fsyncs))
		add(p+"logged_bytes_per_op", "bytes", ratio(delta(m.pa, m.pb, "p2drm_kvstore_logged_bytes", match), m.unitOps))
		add(p+"segment_rolls", "count", delta(m.pa, m.pb, "p2drm_kvstore_segment_rolls_total", match))
		add(p+"compactions", "count", delta(m.pa, m.pb, "p2drm_kvstore_compactions_total", match))
	}

	add("replica.fetch_ms_p50", "ms", scrapeQuantile(m.ra, m.rb, "p2drm_replica_fetch_duration_seconds", nil, 0.5))
	add("replica.apply_ms_p50", "ms", scrapeQuantile(m.ra, m.rb, "p2drm_replica_apply_duration_seconds", nil, 0.5))
	add("replica.applied_bytes_per_s", "bytes/s",
		ratio(delta(m.ra, m.rb, "p2drm_replica_bytes_applied_total", nil), m.elapsed.Seconds()))
	add("replica.read_p50_ms", "ms", m.latencyMS(readLatencies, 0.50))
	add("replica.read_p99_ms", "ms", m.latencyMS(readLatencies, 0.99))
	add("replica.lag_bytes_end", "bytes", float64(m.lagEnd))
	add("replica.catchup_ms_end", "ms", ms(float64(m.catchup)))

	add("process.server_cpu_ms_per_op", "ms/op", ms(m.medianOver(func(w window) (time.Duration, bool) {
		if len(w.op) == 0 {
			return 0, false
		}
		return w.cpu / time.Duration(len(w.op)), true
	})))
	add("process.primary_cpu_ms_per_op", "ms/op", ratio(ms(float64(m.cpuP)), m.unitOps))
	add("process.replica_cpu_ms_per_op", "ms/op", ratio(ms(float64(m.cpuR)), m.unitOps))
	add("process.driver_cpu_ms_per_op", "ms/op", ratio(ms(float64(m.cpuSelf)), m.unitOps))
	add("process.primary_rss_mb", "MiB", m.rssP)
	add("process.replica_rss_mb", "MiB", m.rssR)

	// Tails are per-layer figures: across runs they spread wider than
	// any bound an end-to-end metric may take.
	add("tail.op_p99_ms", "ms", m.latencyMS(opLatencies, 0.99))
	var waits []time.Duration
	for _, r := range m.run.results {
		waits = append(waits, r.wait)
	}
	add("gen.lateness_ms_p99", "ms", ms(quantile(waits, 0.99)))
	add("gen.max_in_flight", "count", float64(m.run.maxInFlight))

	add("trace.coverage", "ratio", ratio(float64(ts.rootDur-ts.rootSelf), float64(ts.rootDur)))
	u, t := quantile(m.untraced, 0.5), quantile(m.tracedOp, 0.5)
	add("trace.overhead_pct", "%", ratio(100*(t-u), u))
	add("env.host_steal_pct", "%", ratio(100*m.stealMS, ms(float64(m.elapsed))*float64(runtime.NumCPU())))
	add("env.loadavg_1m", "load", m.loadAvg1)
	return out
}
