// Package bloom implements a standard Bloom filter used as the fast path
// of the revocation list: a negative answer ("serial not revoked") is
// exact and costs a few hashes; a positive answer falls back to the exact
// store. Sized for a target false-positive rate so the fallback stays rare
// (T4 in docs/experiments.md measures this crossover).
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Filter is a fixed-size Bloom filter. The zero value is not usable; build
// one with New or NewWithEstimates.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	n    uint64 // elements added
}

// New creates a filter with m bits and k hash functions.
func New(m uint64, k uint32) (*Filter, error) {
	if m == 0 || k == 0 {
		return nil, errors.New("bloom: m and k must be positive")
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

// NewWithEstimates sizes the filter for n expected elements at
// false-positive rate fp using the textbook optima
// m = -n·ln(fp)/ln2², k = m/n·ln2.
func NewWithEstimates(n uint64, fp float64) (*Filter, error) {
	if n == 0 {
		return nil, errors.New("bloom: expected elements must be positive")
	}
	if fp <= 0 || fp >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate %v out of (0,1)", fp)
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m == 0 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// indexes derives the k bit positions for data using double hashing
// (Kirsch–Mitzenmacher): h_i = h1 + i·h2.
func (f *Filter) indexes(data []byte) (uint64, uint64) {
	h := fnv.New128a()
	h.Write(data)
	sum := h.Sum(nil)
	h1 := binary.BigEndian.Uint64(sum[:8])
	h2 := binary.BigEndian.Uint64(sum[8:16]) | 1 // odd so it cycles all residues
	return h1, h2
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	h1, h2 := f.indexes(data)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether data may have been added. False means
// definitely not present; true means present with probability
// 1 - EstimatedFalsePositiveRate.
func (f *Filter) Contains(data []byte) bool {
	h1, h2 := f.indexes(data)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.n }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() uint32 { return f.k }

// EstimatedFalsePositiveRate computes (1 - e^{-kn/m})^k for the current
// fill level.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.n == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.n) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// Marshal serialises the filter:
//
//	m[8] | k[4] | n[8] | words...
func (f *Filter) Marshal() []byte {
	out := make([]byte, 20+8*len(f.bits))
	binary.BigEndian.PutUint64(out[0:8], f.m)
	binary.BigEndian.PutUint32(out[8:12], f.k)
	binary.BigEndian.PutUint64(out[12:20], f.n)
	for i, w := range f.bits {
		binary.BigEndian.PutUint64(out[20+8*i:], w)
	}
	return out
}

// Unmarshal reconstructs a filter from Marshal output.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 20 {
		return nil, errors.New("bloom: truncated encoding")
	}
	m := binary.BigEndian.Uint64(data[0:8])
	k := binary.BigEndian.Uint32(data[8:12])
	n := binary.BigEndian.Uint64(data[12:20])
	words := int((m + 63) / 64)
	if len(data) != 20+8*words {
		return nil, fmt.Errorf("bloom: encoding length %d, want %d", len(data), 20+8*words)
	}
	f, err := New(m, k)
	if err != nil {
		return nil, err
	}
	f.n = n
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(data[20+8*i:])
	}
	return f, nil
}

// Union merges other into f. Both filters must share m and k.
func (f *Filter) Union(other *Filter) error {
	if other == nil || f.m != other.m || f.k != other.k {
		return errors.New("bloom: incompatible filters")
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.n += other.n
	return nil
}
