package main

// Open-loop load generation. Each class of requests has its own evenly
// spaced schedule at a fixed offered rate; the seed fixes what every
// arrival does (users, peers, read kinds), so the same seed gives the
// same op sequence. A fixed set of workers serves each class, with at
// most nproc workers (and so connections) in flight across classes. An
// arrival that finds no free worker waits and is counted late, never
// shed, and its latency counts from its scheduled arrival time.

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"p2drm/internal/httpapi"
)

// arrival is one scheduled request of a class.
type arrival struct {
	seq   int           // position in the class schedule
	at    time.Duration // scheduled offset from the run start
	kind  string        // what the arrival does, within its workload
	picks []int         // seeded choices: users, peers, items
}

// class is one stream of arrivals and the workers serving it.
type class struct {
	name    string // "op" (the workload's unit op) or "read"
	workers int
	sched   []arrival
	do      func(w *worker, a arrival) error
}

// schedule spaces n = rate×seconds arrivals evenly and lets pick fill
// each one from a generator seeded for this class.
func schedule(rate float64, seconds int, seed int64, pick func(r *rand.Rand, a *arrival)) []arrival {
	r := rand.New(rand.NewSource(seed))
	n := int(rate * float64(seconds))
	out := make([]arrival, n)
	for i := range out {
		out[i].seq = i
		out[i].at = time.Duration(float64(i) * float64(time.Second) / rate)
		pick(r, &out[i])
	}
	return out
}

// result is one completed request as the generator saw it.
type result struct {
	class   string
	replica bool          // served by the replica
	at      time.Time     // scheduled arrival
	lat     time.Duration // completion minus scheduled arrival
	wait    time.Duration // dispatch minus scheduled arrival
	done    time.Time
	traced  bool
	err     error
}

// worker is one load-generating goroutine with its own SDK clients
// (sharing the SDK's default connection pool) and its own records.
type worker struct {
	P, R *httpapi.Client
	tr   *opTrace // the op being traced, nil when untraced
	// checks verify the outputs of this worker's ops after the run,
	// off the timed path.
	checks []func() error

	results []result
	traces  []*opTrace
}

func newWorker(pURL, rURL string, traced bool) *worker {
	w := &worker{P: httpapi.NewClient(pURL, group()), R: httpapi.NewClient(rURL, group())}
	if traced {
		hc := &http.Client{Transport: timedTransport{w}}
		w.P.HTTP, w.R.HTTP = hc, hc
	}
	return w
}

// record files one completed request, and its trace when it had one.
func (w *worker) record(r result, sched, dispatch time.Time, err error) {
	end := time.Now()
	r.at, r.lat, r.wait, r.done, r.traced, r.err = sched, end.Sub(sched), dispatch.Sub(sched), end, w.tr != nil, err
	w.results = append(w.results, r)
	if w.tr != nil {
		w.tr.spans[0].end = end
		w.traces = append(w.traces, w.tr)
		w.tr = nil
	}
}

// loadRun is the outcome of one open-loop run.
type loadRun struct {
	last        time.Time // last completion
	results     []result
	traces      []*opTrace
	checks      []func() error
	maxInFlight int64
}

// sleepUntil blocks the calling thread in nanosleep until t. The
// runtime's own timers wake through the network poller, whose
// millisecond granularity would make the generator up to a millisecond
// late on every arrival — more than a whole read takes.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runLoad drives every class on its schedule from start and returns
// once each scheduled arrival has completed. With trace set, every
// other arrival of each class is traced, so traced and untraced
// latencies come from the same run.
func runLoad(start time.Time, classes []class, newW func() *worker, trace bool) *loadRun {
	var (
		wg       sync.WaitGroup
		inFlight atomic.Int64
		maxIn    atomic.Int64
		all      []*worker
	)
	for _, c := range classes {
		c := c
		next := make(chan int)
		wg.Add(1)
		go func() { // pacer: releases each arrival at its scheduled time
			defer wg.Done()
			defer close(next)
			for i, a := range c.sched {
				sleepUntil(start.Add(a.at))
				next <- i
			}
		}()
		for k := 0; k < c.workers; k++ {
			w := newW()
			all = append(all, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					a := c.sched[i]
					sched := start.Add(a.at)
					dispatch := time.Now()
					n := inFlight.Add(1)
					for m := maxIn.Load(); n > m && !maxIn.CompareAndSwap(m, n); m = maxIn.Load() {
					}
					traced := trace && i%2 == 0
					if traced {
						w.tr = newOpTrace(c.name, sched)
						w.tr.finish(w.tr.begin("gen.wait", sched), dispatch)
					}
					err := c.do(w, a)
					w.record(result{class: c.name, replica: replicaKinds[a.kind]}, sched, dispatch, err)
					inFlight.Add(-1)
				}
			}()
		}
	}
	wg.Wait()
	run := &loadRun{maxInFlight: maxIn.Load()}
	for _, w := range all {
		run.results = append(run.results, w.results...)
		run.traces = append(run.traces, w.traces...)
		run.checks = append(run.checks, w.checks...)
		for _, r := range w.results {
			if r.done.After(run.last) {
				run.last = r.done
			}
		}
	}
	return run
}
