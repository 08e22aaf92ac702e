// Package bitset implements fixed-length bitsets with fast population
// counts. The cascade evaluator represents per-model decisions over the
// evaluation set as bitsets, which is what makes simulating millions of
// cascades cheap (Section V-D's "extremely fast evaluation").
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-length bitset. Bits beyond Len are kept zero as an
// invariant so that Count and friends never need masking.
type Set struct {
	n     int
	words []uint64
}

// New returns a set of length n with all bits clear.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (s *Set) Len() int { return s.n }

// Grow extends the set to n bits, appending clear bits. Growing never
// disturbs existing bits; shrinking is not supported (n below Len is a
// no-op). Appends are amortized, so materialized label columns can track an
// append-only corpus without quadratic copying.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	words := (n + 63) / 64
	for len(s.words) < words {
		s.words = append(s.words, 0)
	}
	s.n = n
}

// AppendMembers appends the index of every set bit to dst in ascending
// order and returns the extended slice, word-skipping over empty regions.
func (s *Set) AppendMembers(dst []int) []int {
	for w, word := range s.words {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Words exposes the backing words (64 bits each, little-endian bit order;
// bits at or beyond Len are zero). Callers that mutate words directly — the
// matstore's word-parallel merges — must preserve the zero-tail invariant.
func (s *Set) Words() []uint64 { return s.words }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// SetAll sets every bit in [0, Len).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// SetRange sets bits [lo, hi) a word at a time; an empty range is a no-op.
func (s *Set) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	if lo < 0 || hi > s.n {
		panic(fmt.Sprintf("bitset: range [%d,%d) out of range [0,%d)", lo, hi, s.n))
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (uint(lo) & 63)
	tail := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		s.words[first] |= head & tail
		return
	}
	s.words[first] |= head
	for w := first + 1; w < last; w++ {
		s.words[w] = ^uint64(0)
	}
	s.words[last] |= tail
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// trim zeroes the tail bits beyond Len.
func (s *Set) trim() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << (uint(s.n) & 63)) - 1
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with src. Lengths must match.
func (s *Set) Copy(src *Set) {
	s.match(src)
	copy(s.words, src.words)
}

func (s *Set) match(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: length mismatch %d != %d", s.n, o.n))
	}
}

// And computes s &= o.
func (s *Set) And(o *Set) {
	s.match(o)
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// Or computes s |= o.
func (s *Set) Or(o *Set) {
	s.match(o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// AndCount returns popcount(s & o) without materializing the intersection.
func (s *Set) AndCount(o *Set) int {
	s.match(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// String renders the set as a 0/1 string for small sets (tests/debugging).
func (s *Set) String() string {
	if s.n > 256 {
		return fmt.Sprintf("bitset(len=%d, count=%d)", s.n, s.Count())
	}
	buf := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if s.Get(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
