package main

// The live topology under test: one p2drmd primary and one -replica-of
// follower, started as child processes with production flags (-lab
// parameters, durable -state in a fresh directory, default group commit
// and crypto settings) and reached only through the public SDK.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/obs"
)

// daemon is one running p2drmd child process.
type daemon struct {
	name string
	port int
	cmd  *exec.Cmd
	log  *os.File
	done chan error // receives Wait's result once the process exits
}

// topology is a booted primary + replica pair.
type topology struct {
	primary, replica *daemon
	// P and R are admin-side SDK clients used for setup, scrapes and
	// checks; load traffic uses per-worker clients (see newWorker).
	P, R *httpapi.Client
}

// group is the -lab Schnorr group both daemons run with.
func group() *schnorr.Group { return schnorr.Group768() }

// freePort asks the kernel for an unused loopback port. The daemon
// binds it a moment later; nothing else on the box races for it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startDaemon(bin, dir, name string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: free port: %w", name, err)
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-lab", "-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-state", filepath.Join(dir, name)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A driver killed outright cannot stop its daemons; the kernel does.
	// Safe here because the driver never locks a goroutine to a thread,
	// so the thread that forked the daemon lives as long as the driver.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("%s: start: %w", name, err)
	}
	d := &daemon{name: name, port: port, cmd: cmd, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	track(d, true)
	return d, nil
}

func (d *daemon) url() string { return "http://127.0.0.1:" + strconv.Itoa(d.port) }

// stop sends SIGTERM (the daemon drains and closes its stores) and
// waits for the exit, escalating to SIGKILL after a grace period.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: done is ready
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	track(d, false)
	d.log.Close()
}

// logTail returns the last lines of the daemon's log, for error reports.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// bootTopology starts the primary, then the replica, and returns once
// both report "ok" on /v2/health and the replica has caught up.
func bootTopology(ctx context.Context, bin, dir string) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topology{}
	var err error
	if t.primary, err = startDaemon(bin, dir, "primary"); err != nil {
		return nil, err
	}
	t.P = httpapi.NewClient(t.primary.url(), group())
	if err := waitHealthy(ctx, t.P, t.primary); err != nil {
		t.stop()
		return nil, err
	}
	if t.replica, err = startDaemon(bin, dir, "replica", "-replica-of", t.primary.url()); err != nil {
		t.stop()
		return nil, err
	}
	t.R = httpapi.NewClient(t.replica.url(), group())
	if err := waitHealthy(ctx, t.R, t.replica); err != nil {
		t.stop()
		return nil, err
	}
	if _, err := t.waitCaughtUp(ctx); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

func (t *topology) stop() {
	t.replica.stop()
	t.primary.stop()
}

// waitHealthy polls /v2/health until the daemon answers 200 with an
// overall "ok", or fails if the process exits or ctx expires.
func waitHealthy(ctx context.Context, c *httpapi.Client, d *daemon) error {
	last := "no answer"
	for {
		hr, code, err := c.HealthV2()
		switch {
		case err != nil:
			last = err.Error()
		case code == http.StatusOK && hr.Status == "ok":
			return nil
		default:
			last = fmt.Sprintf("status %d %s", code, hr.Status)
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("%s exited during boot (%v):\n%s", d.name, err, d.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %s", d.name, last)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// replicatedStores are the stores a replica tails from the primary.
var replicatedStores = []string{"provider", "bank"}

// lagBytes reports how far the replica's cursor trails the primary's
// durable horizon, summed over the replicated stores; caughtUp is true
// when every cursor sits exactly on its horizon.
func (t *topology) lagBytes() (lag int64, caughtUp bool, err error) {
	ps, err := t.P.ReplicaStatus()
	if err != nil {
		return 0, false, fmt.Errorf("primary replica status: %w", err)
	}
	rs, err := t.R.ReplicaStatus()
	if err != nil {
		return 0, false, fmt.Errorf("replica status: %w", err)
	}
	caughtUp = true
	for _, name := range replicatedStores {
		p, r := ps.Stores[name], rs.Replica[name]
		if r.Cursor.Seg != p.DurableSeg || r.Cursor.Off != p.DurableOff {
			caughtUp = false
		}
		if r.LagBytes > 0 {
			lag += r.LagBytes
		}
	}
	return lag, caughtUp, nil
}

// waitCaughtUp polls until the replica sits on the primary's durable
// horizon and returns how long that took.
func (t *topology) waitCaughtUp(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for {
		_, ok, err := t.lagBytes()
		if err == nil && ok {
			return time.Since(start), nil
		}
		select {
		case <-ctx.Done():
			if err == nil {
				err = errors.New("cursor behind the primary's durable horizon")
			}
			return 0, fmt.Errorf("replica never caught up: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// scrape fetches and parses /v2/metrics from both daemons.
func (t *topology) scrape() (p, r *obs.Metrics, err error) {
	if p, err = scrapeOne(t.P); err == nil {
		r, err = scrapeOne(t.R)
	}
	return p, r, err
}

func scrapeOne(c *httpapi.Client) (*obs.Metrics, error) {
	raw, err := c.MetricsV2()
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("metrics scrape: %w", err)
	}
	return m, nil
}

// cpuSample is the CPU time each daemon has used so far.
type cpuSample struct{ p, r time.Duration }

func (t *topology) cpu() (s cpuSample, err error) {
	if s.p, err = procCPU(t.primary.cmd.Process.Pid); err == nil {
		s.r, err = procCPU(t.replica.cmd.Process.Pid)
	}
	return s, err
}
