// Package bloom implements a small Bloom filter used as partition-level
// metadata for high-cardinality categorical columns. When a partition's
// exact distinct set overflows its budget, systems like Parquet fall
// back to Bloom filters: membership tests then admit false positives
// (the partition is scanned unnecessarily) but never false negatives
// (a matching partition is never skipped), which preserves the
// soundness of partition skipping.
//
// The implementation is the standard double-hashing scheme of Kirsch &
// Mitzenmauer: k indexes derived from two 64-bit FNV-1a halves.
package bloom

import "hash/fnv"

// Filter is a fixed-size Bloom filter. The zero value is unusable;
// construct with New.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// New returns a filter with the given size in bits (rounded up to a
// multiple of 64) and number of hash functions. A 1024-bit filter with
// 4 hashes holds ~100 values at ~2% false-positive rate — ample for
// partition metadata, where a false positive merely costs one scan.
func New(bits int, hashes int) *Filter {
	if bits <= 0 {
		panic("bloom: bits must be positive")
	}
	if hashes <= 0 {
		panic("bloom: hashes must be positive")
	}
	words := (bits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  uint64(words * 64),
		hashes: hashes,
	}
}

// hash2 returns two independent 64-bit hashes of s: the FNV-1a hash and
// a splitmix64-style remix of it. Deriving the second hash by appending
// a salt byte to FNV would make it an affine function of the first
// (FNV's step is linear), which degenerates double hashing; the
// multiplicative finalizer breaks that correlation.
func hash2(s string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	h1 := h.Sum64()

	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h2 := z ^ (z >> 31)
	if h2%2 == 0 { // ensure h2 is odd so strides cover the table
		h2++
	}
	return h1, h2
}

// HashPair returns the double-hashing pair for a value, for callers that
// probe many filters with the same value (e.g. a compiled IN-predicate
// tested against every partition's filter). The pair is stable for a
// given value and can be reused with MayContainHash.
func HashPair(s string) (h1, h2 uint64) { return hash2(s) }

// Add inserts a value.
func (f *Filter) Add(s string) {
	h1, h2 := hash2(s)
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % f.nbits
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// MayContain reports whether the value may have been added. False means
// definitely absent; true means present or a false positive.
func (f *Filter) MayContain(s string) bool {
	h1, h2 := hash2(s)
	return f.MayContainHash(h1, h2)
}

// MayContainHash is MayContain for a value pre-hashed with HashPair.
func (f *Filter) MayContainHash(h1, h2 uint64) bool {
	for i := 0; i < f.hashes; i++ {
		idx := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}
