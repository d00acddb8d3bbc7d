package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: p2drm
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkT2_PurchaseP2DRM 	    1518	   1618278 ns/op
BenchmarkT3_PurchaseBatch-4 	    1873	    661754 ns/op
BenchmarkT3_DepositParallel/group_commit/shards_16-8 	     500	   2400000 ns/op
BenchmarkF1_LinkageAttack/reuse_4-2 	       3	    384441 ns/op	         2.095 entropy_bits	         0.08671 recall	   51234 B/op	     812 allocs/op
BenchmarkBad no numbers here
PASS
ok  	p2drm	13.218s
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "p2drm" {
		t.Fatalf("header fields = %q %q %q", rep.Goos, rep.Goarch, rep.Pkg)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu = %q", rep.CPU)
	}
	want := map[string]Result{
		"BenchmarkT2_PurchaseP2DRM":                          {Iterations: 1518, NsPerOp: 1618278},
		"BenchmarkT3_PurchaseBatch":                          {Iterations: 1873, NsPerOp: 661754},
		"BenchmarkT3_DepositParallel/group_commit/shards_16": {Iterations: 500, NsPerOp: 2400000},
		"BenchmarkF1_LinkageAttack/reuse_4":                  {Iterations: 3, NsPerOp: 384441},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for name, w := range want {
		got, ok := rep.Benchmarks[name]
		if !ok {
			t.Fatalf("missing %s in %v", name, rep.Benchmarks)
		}
		if got != w {
			t.Fatalf("%s = %+v, want %+v", name, got, w)
		}
	}
}

// TestParseMedian: -count=N repeats each benchmark line; the report
// must carry the median ns/op (odd: middle; even: mean of middles) so
// one noisy run cannot move the snapshot.
func TestParseMedian(t *testing.T) {
	input := `BenchmarkT3_PurchaseBatch-4 	 100	 900 ns/op
BenchmarkT3_PurchaseBatch-4 	 100	 5000 ns/op
BenchmarkT3_PurchaseBatch-4 	 100	 1000 ns/op
BenchmarkT3_ExchangeBatch-4 	 200	 400 ns/op
BenchmarkT3_ExchangeBatch-4 	 200	 600 ns/op
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	odd := rep.Benchmarks["BenchmarkT3_PurchaseBatch"]
	if odd.NsPerOp != 1000 || odd.Samples != 3 {
		t.Fatalf("odd-count median = %+v, want 1000 ns/op over 3 samples", odd)
	}
	even := rep.Benchmarks["BenchmarkT3_ExchangeBatch"]
	if even.NsPerOp != 500 || even.Samples != 2 {
		t.Fatalf("even-count median = %+v, want 500 ns/op over 2 samples", even)
	}
	// A single run keeps its exact value and omits Samples.
	single, err := parse(strings.NewReader("BenchmarkT3_Solo-4 	 10	 123 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Benchmarks["BenchmarkT3_Solo"]; got.NsPerOp != 123 || got.Samples != 0 {
		t.Fatalf("single run = %+v", got)
	}
}

// TestGate: regressions past tolerance fail, within-tolerance pass,
// deleted benchmarks fail, and a vacuous pattern errors.
func TestGate(t *testing.T) {
	base := Report{Benchmarks: map[string]Result{
		"BenchmarkT3_PurchaseBatch": {NsPerOp: 1000},
		"BenchmarkT3_ExchangeBatch": {NsPerOp: 2000},
		"BenchmarkT2_Other":         {NsPerOp: 50},
	}}
	re := regexp.MustCompile(`^BenchmarkT3_.*Batch`)

	cur := Report{Benchmarks: map[string]Result{
		"BenchmarkT3_PurchaseBatch": {NsPerOp: 1050}, // +5%: inside 10%
		"BenchmarkT3_ExchangeBatch": {NsPerOp: 2100}, // +5%
		"BenchmarkT2_Other":         {NsPerOp: 5000}, // unmatched: ignored
	}}
	bad, matched, err := gate(cur, base, re, 0.10)
	if err != nil || len(bad) != 0 || matched != 2 {
		t.Fatalf("clean gate: bad=%v matched=%d err=%v", bad, matched, err)
	}

	cur.Benchmarks["BenchmarkT3_PurchaseBatch"] = Result{NsPerOp: 1200} // +20%
	bad, _, err = gate(cur, base, re, 0.10)
	if err != nil || len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkT3_PurchaseBatch") {
		t.Fatalf("regression not flagged: bad=%v err=%v", bad, err)
	}

	delete(cur.Benchmarks, "BenchmarkT3_ExchangeBatch")
	bad, _, err = gate(cur, base, re, 0.10)
	if err != nil || len(bad) != 2 {
		t.Fatalf("deleted benchmark not flagged: bad=%v err=%v", bad, err)
	}

	if _, _, err := gate(cur, base, regexp.MustCompile(`^BenchmarkT9_`), 0.10); err == nil {
		t.Fatal("vacuous gate pattern did not error")
	}
}
