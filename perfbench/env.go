package main

// Process and host readings from /proc, and the environment record
// printed with every run so that a noisy run can be identified later.
// A noisy run is reported, never excluded.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of /proc/stat CPU times; it is 100 on
// every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU time a process's threads have run so far,
// in nanoseconds from /proc/<pid>/task/*/schedstat. (The USER_HZ
// ticks of /proc/<pid>/stat are too coarse for a two-second window.)
func procCPU(pid int) (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat of %d: %w", pid, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// selfCPU returns the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procRSSMB returns a process's resident set size in MiB.
func procRSSMB(pid int) float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostSteal returns the host-wide CPU time stolen by the hypervisor so
// far (the eighth value of the aggregate cpu line of /proc/stat).
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(v) * clockTick
}

// loadAvg1 returns the one-minute load average.
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// tcpSocketsTo counts the IPv4 TCP sockets on the host whose remote
// end is one of ports — the client side of every connection to those
// loopback daemons, open or in TIME_WAIT.
func tcpSocketsTo(ports ...int) int {
	want := make(map[string]bool, len(ports))
	for _, p := range ports {
		want[fmt.Sprintf("%04X", p)] = true
	}
	b, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		if _, port, ok := strings.Cut(f[2], ":"); ok && want[port] {
			n++
		}
	}
	return n
}

// environment is the record printed with every run.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	CPUModel   string  `json:"cpu_model"`
	StealMS    float64 `json:"host_steal_ms"`
	LoadAvg1   float64 `json:"loadavg_1m"`
}

func captureEnv(root string) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		Source:     sourceDigest(root),
		CPUModel:   cpuModel(),
	}
}

// commitOf names the commit under test when root is a git checkout;
// the source digest identifies the code either way. Without a .git at
// root it does not ask git, which would search the parent directories.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root
// (skipping dot-directories such as the build directory), in walk
// order, so two runs of the same code report the same digest.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
