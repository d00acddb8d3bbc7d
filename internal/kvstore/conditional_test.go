package kvstore

// Tests for ApplyIfAbsent, the all-or-nothing compare-and-set over a
// batch of puts that the bank's spent-coin ledger settles a whole
// purchase with.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func condBatch(kv ...string) *Batch {
	b := new(Batch)
	for i := 0; i+1 < len(kv); i += 2 {
		b.Put([]byte(kv[i]), []byte(kv[i+1]))
	}
	return b
}

func TestApplyIfAbsent(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.ApplyIfAbsent(condBatch("a", "1", "b", "2", "c", "3"))
	if err != nil || !ok {
		t.Fatalf("fresh batch: ok=%v err=%v", ok, err)
	}
	// One present key voids the whole batch.
	ok, err = s.ApplyIfAbsent(condBatch("d", "4", "b", "x"))
	if err != nil || ok {
		t.Fatalf("conflicting batch: ok=%v err=%v", ok, err)
	}
	if s.Has([]byte("d")) {
		t.Error("losing batch wrote its absent key")
	}
	if v, _ := s.Get([]byte("b")); string(v) != "2" {
		t.Errorf("b = %q, want the winner's value", v)
	}
	// The one-key case is PutIfAbsent.
	if ok, err := s.PutIfAbsent([]byte("c"), []byte("y")); err != nil || ok {
		t.Errorf("PutIfAbsent on a batch-written key: ok=%v err=%v", ok, err)
	}

	withDel := condBatch("e", "5")
	withDel.Delete([]byte("a"))
	for name, tc := range map[string]struct {
		b    *Batch
		want error
	}{
		"delete":   {withDel, ErrConditionalDelete},
		"repeated": {condBatch("f", "1", "g", "2", "f", "3"), ErrRepeatedKey},
		"emptykey": {condBatch("", "1", "h", "2"), ErrEmptyKey},
	} {
		if ok, err := s.ApplyIfAbsent(tc.b); err != tc.want || ok {
			t.Errorf("%s: ok=%v err=%v, want %v", name, ok, err, tc.want)
		}
	}
	if ok, err := s.ApplyIfAbsent(new(Batch)); err != nil || !ok {
		t.Errorf("empty batch: ok=%v err=%v", ok, err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3: a rejected batch wrote something", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyIfAbsent(condBatch("z", "1")); err != ErrClosed {
		t.Errorf("closed store: err = %v, want ErrClosed", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshotMap(s2); len(got) != 3 || got["a"] != "1" || got["b"] != "2" || got["c"] != "3" {
		t.Errorf("after reopen: %v", got)
	}
}

// TestApplyIfAbsentReplaysAtomically: the conditional batch is one log
// record — ScanRecords (the follower's apply unit) yields all of its
// ops in one call, and a crash that tears the record anywhere replays
// to none of its keys, never to some.
func TestApplyIfAbsentReplaysAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("before"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	b := new(Batch)
	for i := 0; i < 5; i++ {
		keys = append(keys, fmt.Sprintf("spent:%02d", i))
		b.Put([]byte(keys[i]), []byte{1})
	}
	if ok, err := s.ApplyIfAbsent(b); err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var calls [][]string
	if _, err := ScanRecords(whole, func(ops []Op, end int64) error {
		var ks []string
		for _, o := range ops {
			ks = append(ks, string(o.Key))
		}
		calls = append(calls, ks)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || len(calls[1]) != len(keys) {
		t.Fatalf("records = %v, want [before] then all %d batch keys in one record", calls, len(keys))
	}

	first := len(encodeRecord(kindPut, encodePutBody([]byte("before"), []byte("x"))))
	for _, cut := range []int{first + 1, first + 9, (first + len(whole)) / 2, len(whole) - 1, len(whole)} {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		present := 0
		for _, k := range keys {
			if s2.Has([]byte(k)) {
				present++
			}
		}
		if !s2.Has([]byte("before")) {
			t.Errorf("cut %d: earlier record lost", cut)
		}
		want := 0
		if cut == len(whole) {
			want = len(keys)
		}
		if present != want {
			t.Errorf("cut %d of %d: %d batch keys replayed, want %d", cut, len(whole), present, want)
		}
		s2.Close()
	}
}

// TestApplyIfAbsentRacesPutIfAbsent races conditional batches against
// single-key PutIfAbsent over overlapping keys on several shards: every
// key has exactly one winner, the stored value is that winner's, and a
// losing batch wrote none of its keys.
func TestApplyIfAbsentRacesPutIfAbsent(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir, policy := "", SyncOnClose
			if durable {
				dir, policy = t.TempDir(), SyncGroupCommit
			}
			s, err := OpenWith(dir, Options{Sync: policy, IndexShards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const workers, opsPer, nKeys = 8, 40, 96
			var (
				mu     sync.Mutex
				claims = make(map[string]string) // key -> winning value
				dups   []string
				wg     sync.WaitGroup
			)
			claim := func(k, v string) {
				mu.Lock()
				defer mu.Unlock()
				if prev, taken := claims[k]; taken {
					dups = append(dups, fmt.Sprintf("%s won by %s and %s", k, prev, v))
				}
				claims[k] = v
			}
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < opsPer; i++ {
						val := fmt.Sprintf("w%d-op%d", w, i)
						if r.Intn(2) == 0 {
							k := fmt.Sprintf("k%03d", r.Intn(nKeys))
							ok, err := s.PutIfAbsent([]byte(k), []byte(val))
							if err != nil {
								t.Error(err)
								return
							}
							if ok {
								claim(k, val)
							}
							continue
						}
						var ks []string
						b := new(Batch)
						for _, j := range r.Perm(nKeys)[:2+r.Intn(4)] {
							ks = append(ks, fmt.Sprintf("k%03d", j))
							b.Put([]byte(ks[len(ks)-1]), []byte(val))
						}
						ok, err := s.ApplyIfAbsent(b)
						if err != nil {
							t.Error(err)
							return
						}
						if ok {
							for _, k := range ks {
								claim(k, val)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			for _, d := range dups {
				t.Error(d)
			}
			got := snapshotMap(s)
			if len(got) != len(claims) {
				t.Errorf("%d keys stored, %d claimed by winners", len(got), len(claims))
			}
			for k, v := range claims {
				if got[k] != v {
					t.Errorf("%s = %q, want winner's %q", k, got[k], v)
				}
			}
		})
	}
}
