// Command perfbench is the repository benchmark. It boots a p2drmd
// primary and one -replica-of follower from the tree under test, drives
// one workload open-loop through the public SDK, checks every output,
// and prints each metric by name with its unit. The last line of its
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics, or with --trace 1
// the per-layer metrics of a traced run.
//
// Run it through run.sh, which builds the daemon and this driver first:
//
//	bash perfbench/run.sh --workload playback --seed 1 --seconds 45 --trace 0
//
// See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// deadline bounds a whole run; the watchdog stops the daemons and
// exits non-zero if it passes.
const deadline = 170 * time.Second

// setups is how many topologies a run sets up; setup_s is the median
// of their set-up times.
const setups = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string // p2drmd binary
	out      string // directory for state, logs and traces
	root     string // source tree under test, for the environment record
	setups   int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: playback, browse or settle")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the run's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 45, "seconds of scheduled arrivals")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "p2drmd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for state, logs and traces")
	flag.Parse()
	cfg.trace, cfg.root, cfg.setups = trace == 1, ".", setups
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || cfg.daemon == "" || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// A write to a closed stdout or stderr must not end the driver
	// before it has stopped its daemons.
	signal.Ignore(syscall.SIGPIPE)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			abort(fmt.Sprintf("stopped by %v", s))
		case <-time.After(deadline):
			abort("run exceeded " + deadline.String())
		}
	}()

	res, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// children are the daemons currently running, for abort.
var children struct {
	sync.Mutex
	m map[*daemon]bool
}

func track(d *daemon, running bool) {
	children.Lock()
	defer children.Unlock()
	if children.m == nil {
		children.m = make(map[*daemon]bool)
	}
	if running {
		children.m[d] = true
	} else {
		delete(children.m, d)
	}
}

// abort kills every daemon, waits for each, and exits non-zero.
func abort(why string) {
	children.Lock()
	for d := range children.m {
		_ = d.cmd.Process.Kill()
		select {
		case <-d.done:
		case <-time.After(5 * time.Second):
		}
	}
	children.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench:", why)
	os.Exit(1)
}

// outcome is one finished run.
type outcome struct {
	env       environment
	e2e       []metric
	layers    []metric
	attempted int
	failed    int
	correct   bool
}

// bench runs cfg.setups set-ups, keeps the last topology, drives the
// workload against it and checks the outputs.
func bench(cfg config) (*outcome, error) {
	wl := workloads[cfg.workload]
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var (
		s       *session
		classes []class
		times   []time.Duration
	)
	for k := 0; k < cfg.setups; k++ {
		if s != nil {
			s.topo.stop()
		}
		t0 := time.Now()
		s, classes, err = setUp(cfg, wl, filepath.Join(runDir, fmt.Sprint(k)), nproc)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0))
	}
	defer s.topo.stop()

	m, err := measure(s.topo, classes, cfg)
	if err != nil {
		return nil, err
	}
	m.setups = times
	env := captureEnv(cfg.root)
	env.StealMS, env.LoadAvg1 = m.stealMS, m.loadAvg1
	res := &outcome{env: env, e2e: m.endToEnd(), attempted: len(m.run.results)}

	// Every failure counts: requests that failed or were refused, output
	// checks, and the post-run checks.
	errs := map[string]int{}
	for _, r := range m.run.results {
		if r.err != nil {
			errs[r.err.Error()]++
		}
	}
	for _, check := range m.run.checks {
		if err := check(); err != nil {
			errs["output check: "+err.Error()]++
		}
	}
	post := []func(*session) error{checkReplicaKeys}
	if wl.postCheck != nil {
		post = append(post, wl.postCheck)
	}
	for _, check := range post {
		res.attempted++
		if err := check(s); err != nil {
			errs["post-run check: "+err.Error()]++
		}
	}
	for msg, n := range errs {
		res.failed += n
		fmt.Fprintf(os.Stderr, "perfbench: %d× %s\n", n, msg)
	}
	res.correct = res.failed == 0
	if cfg.trace {
		res.layers = m.perLayer()
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeTraces(path, m.run.traces); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d traced ops written to %s\n", len(m.run.traces), path)
	}
	return res, nil
}

// measure runs the timed phase on t and collects what the daemons,
// the host and the driver itself observed around it. The phase is cut
// into windows; latency percentiles and CPU per op are the median of
// their per-window values, so a burst of host noise moves one window,
// not the run.
func measure(t *topology, classes []class, cfg config) (*measurement, error) {
	m := &measurement{}
	var err error
	if m.pa, m.ra, err = t.scrape(); err != nil {
		return nil, err
	}
	self0, steal0, sock0 := selfCPU(), hostSteal(), tcpSocketsTo(t.primary.port, t.replica.port)
	nWin := max(1, cfg.seconds/2)
	winLen := time.Duration(cfg.seconds) * time.Second / time.Duration(nWin)
	cpu := make([]cpuSample, nWin+1) // at each window edge
	start := time.Now()
	if cpu[0], err = t.cpu(); err != nil {
		return nil, err
	}
	sampled := make(chan error, 1)
	go func() {
		var err error
		for k := 1; k < nWin && err == nil; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * winLen)))
			cpu[k], err = t.cpu()
		}
		sampled <- err
	}()
	m.run = runLoad(start, classes, func() *worker {
		return newWorker(t.primary.url(), t.replica.url(), cfg.trace)
	}, cfg.trace)
	if err := <-sampled; err != nil {
		return nil, err
	}
	if cpu[nWin], err = t.cpu(); err != nil {
		return nil, err
	}
	m.cpuSelf = selfCPU() - self0
	m.sockets = tcpSocketsTo(t.primary.port, t.replica.port) - sock0
	m.stealMS, m.loadAvg1 = ms(float64(hostSteal()-steal0)), loadAvg1()
	m.rssP, m.rssR = procRSSMB(t.primary.cmd.Process.Pid), procRSSMB(t.replica.cmd.Process.Pid)
	m.cpuP, m.cpuR = cpu[nWin].p-cpu[0].p, cpu[nWin].r-cpu[0].r
	if m.lagEnd, _, err = t.lagBytes(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if m.catchup, err = t.waitCaughtUp(ctx); err != nil {
		return nil, err
	}
	if m.pb, m.rb, err = t.scrape(); err != nil {
		return nil, err
	}

	m.elapsed = m.run.last.Sub(start)
	m.win = make([]window, nWin)
	for k := range m.win {
		m.win[k].cpu = cpu[k+1].p + cpu[k+1].r - cpu[k].p - cpu[k].r
	}
	for _, r := range m.run.results {
		if r.err != nil {
			continue
		}
		w := &m.win[min(nWin-1, int(r.at.Sub(start)/winLen))]
		if r.replica {
			w.read = append(w.read, r.lat)
		}
		if r.class != "op" {
			continue
		}
		m.unitOps++
		w.op = append(w.op, r.lat)
		if r.traced {
			m.tracedOp = append(m.tracedOp, r.lat)
		} else {
			m.untraced = append(m.untraced, r.lat)
		}
	}
	return m, nil
}

// setUp boots a topology in dir and prepares the workload's clients:
// the part of a run setup_s times.
func setUp(cfg config, wl *workload, dir string, nproc int) (*session, []class, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	t, err := bootTopology(ctx, cfg.daemon, dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := newSession(t, wl, cfg.seed)
	if err != nil {
		t.stop()
		return nil, nil, err
	}
	classes := wl.classes(wl, s, cfg.seed, cfg.seconds, nproc)
	if wl.setup != nil {
		err = wl.setup(s, classes)
	}
	if err == nil {
		_, err = t.waitCaughtUp(ctx)
	}
	if err != nil {
		t.stop()
		return nil, nil, err
	}
	return s, classes, nil
}

// checkReplicaKeys compares, once the replica has caught up, the live
// key count of every replicated store on both daemons.
func checkReplicaKeys(s *session) error {
	ps, err := s.topo.P.Stats()
	if err != nil {
		return err
	}
	rs, err := s.topo.R.Stats()
	if err != nil {
		return err
	}
	for _, name := range replicatedStores {
		if p, r := ps.Stores[name].LiveKeys, rs.Stores[name].LiveKeys; p != r {
			return fmt.Errorf("store %s: primary has %d live keys, replica %d", name, p, r)
		}
	}
	return nil
}

// print writes the environment, every metric by name with its unit,
// and the result object as the last line.
func (res *outcome) print(w io.Writer, cfg config) error {
	env, _ := json.Marshal(res.env)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\nenv %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env)
	report := res.e2e
	if cfg.trace {
		// A traced run's end-to-end figures carry the tracing overhead;
		// they are shown for reference but not reported.
		for _, m := range res.e2e {
			fmt.Fprintf(w, "traced-run %-40s %14.4f %s\n", m.name, m.value, m.unit)
		}
		report = res.layers
	}
	metrics := make(map[string]any, len(report))
	for _, m := range report {
		fmt.Fprintf(w, "metric %-44s %14.4f %s\n", m.name, m.value, m.unit)
		metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return fmt.Errorf("result: %w", err) // a NaN or Inf metric
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
