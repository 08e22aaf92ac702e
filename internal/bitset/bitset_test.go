package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // spans three words
	if s.Len() != 130 || s.Count() != 0 || s.Any() {
		t.Fatal("fresh set not empty")
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if s.Count() != 3 || !s.Any() {
		t.Fatalf("Count = %d", s.Count())
	}
	if !s.Get(64) || s.Get(63) {
		t.Fatal("Get wrong")
	}
	s.Clear(64)
	if s.Get(64) || s.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	s.Reset()
	if s.Any() {
		t.Fatal("Reset failed")
	}
}

func TestSetAllRespectsLength(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128} {
		s := New(n)
		s.SetAll()
		if s.Count() != n {
			t.Fatalf("SetAll(len=%d) count=%d", n, s.Count())
		}
	}
}

func TestBoundsPanic(t *testing.T) {
	s := New(10)
	for _, f := range []func(){func() { s.Set(10) }, func() { s.Get(-1) }, func() { s.Clear(11) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	a.And(b)
}

// refSet is a naive reference implementation used for property testing.
type refSet map[int]bool

func randomPair(rng *rand.Rand, n int) (*Set, refSet) {
	s := New(n)
	r := make(refSet)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Set(i)
			r[i] = true
		}
	}
	return s, r
}

// TestAgainstReference drives the bitset and a map-based model with the same
// operations and compares every observable.
func TestAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, ra := randomPair(rng, n)
		b, rb := randomPair(rng, n)

		count := func(r refSet) int { return len(r) }
		eq := func(s *Set, r refSet) bool {
			if s.Count() != count(r) {
				return false
			}
			for i := 0; i < n; i++ {
				if s.Get(i) != r[i] {
					return false
				}
			}
			return true
		}

		// AndCount.
		inter := 0
		for i := 0; i < n; i++ {
			if ra[i] && rb[i] {
				inter++
			}
		}
		if a.AndCount(b) != inter {
			return false
		}

		// Mutating ops on clones.
		x := a.Clone()
		for i := 0; i < n; i++ {
			if x.Get(i) != ra[i] {
				return false
			}
		}
		x.And(b)
		rx := make(refSet)
		for i := range ra {
			if rb[i] {
				rx[i] = true
			}
		}
		if !eq(x, rx) {
			return false
		}
		y := a.Clone()
		y.Or(b)
		ry := make(refSet)
		for i := range ra {
			ry[i] = true
		}
		for i := range rb {
			ry[i] = true
		}
		if !eq(y, ry) {
			return false
		}
		v := New(n)
		v.Copy(a)
		return eq(v, ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmall(t *testing.T) {
	s := New(4)
	s.Set(1)
	s.Set(3)
	if s.String() != "0101" {
		t.Fatalf("String = %q", s.String())
	}
	big := New(1000)
	big.Set(5)
	if got := big.String(); got != "bitset(len=1000, count=1)" {
		t.Fatalf("String = %q", got)
	}
}

func TestGrow(t *testing.T) {
	for _, tc := range []struct{ from, to int }{
		{0, 1}, {1, 64}, {64, 65}, {63, 64}, {40, 200}, {128, 128}, {100, 7},
	} {
		s := New(tc.from)
		for i := 0; i < tc.from; i += 3 {
			s.Set(i)
		}
		want := s.Count()
		s.Grow(tc.to)
		wantLen := tc.to
		if wantLen < tc.from {
			wantLen = tc.from // shrinking is a no-op
		}
		if s.Len() != wantLen {
			t.Fatalf("Grow(%d→%d): Len = %d, want %d", tc.from, tc.to, s.Len(), wantLen)
		}
		if s.Count() != want {
			t.Fatalf("Grow(%d→%d): Count = %d, want %d (grown bits must be clear)", tc.from, tc.to, s.Count(), want)
		}
		for i := 0; i < s.Len(); i++ {
			wantBit := i < tc.from && i%3 == 0
			if s.Get(i) != wantBit {
				t.Fatalf("Grow(%d→%d): bit %d = %v, want %v", tc.from, tc.to, i, s.Get(i), wantBit)
			}
		}
		// SetAll keeps the zero-tail invariant at the grown length.
		s.SetAll()
		if s.Count() != s.Len() {
			t.Fatalf("Grow(%d→%d): SetAll count %d != len %d", tc.from, tc.to, s.Count(), s.Len())
		}
	}
}

// TestSetRange holds SetRange to setting bits one by one, over every range of
// a set spanning three words and over random starting contents, and checks
// that an out-of-range bound panics.
func TestSetRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 150
	for lo := 0; lo <= n; lo++ {
		for hi := lo - 1; hi <= n; hi++ {
			s, ref := randomPair(rng, n)
			s.SetRange(lo, hi)
			for i := lo; i < hi; i++ {
				ref[i] = true
			}
			for i := 0; i < n; i++ {
				if s.Get(i) != ref[i] {
					t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", lo, hi, i, s.Get(i), ref[i])
				}
			}
			if s.Count() != len(ref) {
				t.Fatalf("SetRange(%d,%d): count %d, want %d", lo, hi, s.Count(), len(ref))
			}
		}
	}
	for _, r := range [][2]int{{-1, 3}, {5, n + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetRange(%d,%d) on a %d-bit set did not panic", r[0], r[1], n)
				}
			}()
			New(n).SetRange(r[0], r[1])
		}()
	}
}
