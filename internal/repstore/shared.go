package repstore

import (
	"fmt"
	"sync"

	"tahoma/internal/img"
)

// SharedReps is a bounded in-memory LRU of materialized physical
// representations, keyed by (transform identity, source frame index). Unlike
// Cache it is not backed by a store: the execution engines publish the
// representations they transform and later runs — typically other queries
// running concurrently against the same corpus — read them back, so a
// representation materialized for query A is a hit for query B. Published
// images are bit-identical copies of the transform output (not quantized
// records), so serving from SharedReps never changes labels. Safe for
// concurrent use.
//
// Size the budget to the corpus's representation working set: when it does
// not fit, the LRU churns (every query pays the publish copy and evicts
// someone else's entry for near-zero hit rate). A steadily growing
// EvictedBytes against a low hit rate is the signal to raise the budget or
// disable sharing.
type SharedReps struct {
	mu  sync.Mutex
	lru *lruCore
}

// NewSharedReps builds a shared representation cache holding up to
// capacityBytes of decoded pixel data.
func NewSharedReps(capacityBytes int64) (*SharedReps, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("repstore: shared rep cache capacity must be positive, got %d", capacityBytes)
	}
	return &SharedReps{lru: newLRUCore(capacityBytes)}, nil
}

// GetRep returns the cached representation of source frame i under transform
// id, or nil. The returned image is shared across callers and must never be
// written (the exec engines uphold this: cached images stay out of their
// pooled ApplyInto buffers).
func (s *SharedReps) GetRep(i int, id string) *img.Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, _ := s.lru.lookup(cacheKey{rep: id, idx: i})
	return v.im
}

// PutRep publishes a representation. The image becomes cache-owned and must
// not alias any buffer the caller will write again; concurrent publishes of
// the same key keep the first copy (the pixels are identical either way —
// transforms are deterministic).
func (s *SharedReps) PutRep(i int, id string, im *img.Image) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.insert(cacheKey{rep: id, idx: i}, cacheValue{im: im})
}

// Contains reports whether the representation of source frame i under
// transform id is resident, without promoting it in the LRU or counting a
// hit or miss — the query planner's residency probe.
func (s *SharedReps) Contains(i int, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.contains(cacheKey{rep: id, idx: i})
}

// Stats reports cache effectiveness. Hits/Misses count GetRep outcomes;
// EvictedBytes is cumulative, ResidentBytes the current footprint.
func (s *SharedReps) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.stats()
}

// Bytes reports the resident footprint — the uniform accessor every label
// or representation cache exposes (Cache and matstore.Store match).
func (s *SharedReps) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.bytes
}

// Evicted reports cumulative bytes pushed out by the LRU policy — the
// uniform accessor paired with Bytes.
func (s *SharedReps) Evicted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.evicted
}

// Len returns the number of cached representations.
func (s *SharedReps) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lru.items)
}
