package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// TestScheduleDeterministic: the same seed gives the same op sequence,
// and another seed a different one, for every workload.
func TestScheduleDeterministic(t *testing.T) {
	for name, wl := range workloads {
		sched := func(seed int64) [][]arrival {
			var out [][]arrival
			for _, c := range wl.classes(wl, &session{}, seed, 3, 2) {
				out = append(out, c.sched)
			}
			return out
		}
		a, b, c := sched(7), sched(7), sched(8)
		if len(a) == 0 || len(a[0]) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
}

// TestWorkersWithinNproc: no workload runs more workers, and so more
// requests in flight, than the box has CPUs, beyond the one worker each
// class needs.
func TestWorkersWithinNproc(t *testing.T) {
	for _, nproc := range []int{1, 2, 8} {
		for name, wl := range workloads {
			n := 0
			for _, c := range wl.classes(wl, &session{}, 1, 1, nproc) {
				n += c.workers
			}
			if n > max(nproc, len(wl.classes(wl, &session{}, 1, 1, nproc))) {
				t.Errorf("%s: %d workers on %d CPUs", name, n, nproc)
			}
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the driver fills.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestMetricNames: every metric name and unit is well formed, names
// are unique, and the driver reports exactly what BENCHMARK.json lists.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := &measurement{run: &loadRun{}}
	for _, set := range []struct {
		got  []metric
		want []struct{ Name, Unit string }
	}{{m.endToEnd(), bf.EndToEnd}, {m.perLayer(), bf.PerLayer}} {
		seen := map[string]bool{}
		var got, want []string
		for _, x := range set.got {
			if !nameRE.MatchString(x.name) || !unitRE.MatchString(x.unit) {
				t.Errorf("malformed metric %q unit %q", x.name, x.unit)
			}
			if seen[x.name] {
				t.Errorf("metric %q reported twice", x.name)
			}
			seen[x.name] = true
			got = append(got, x.name+" "+x.unit)
		}
		for _, x := range set.want {
			want = append(want, x.Name+" "+x.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("driver reports\n%v\nBENCHMARK.json lists\n%v", got, want)
		}
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}

// TestSmoke runs each workload for one second against a live primary
// and replica built from this tree, untraced and traced, and requires
// every output to check out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live daemons")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "p2drmd")
	if out, err := exec.Command("go", "build", "-o", bin, "p2drm/cmd/p2drmd").CombinedOutput(); err != nil {
		t.Fatalf("build p2drmd: %v\n%s", err, out)
	}
	for _, name := range []string{"playback", "browse", "settle"} {
		for _, trace := range []bool{false, true} {
			res, err := bench(config{workload: name, seed: 3, seconds: 1, trace: trace,
				daemon: bin, out: dir, root: "..", setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.correct, res.attempted, res.failed)
			}
			report := res.e2e
			if trace {
				report = res.layers
			}
			for _, m := range report {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, m.name, m.value)
				}
			}
			for _, m := range res.e2e {
				if m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, m.value)
				}
			}
		}
	}
}
