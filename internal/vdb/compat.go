package vdb

import (
	"fmt"

	"tahoma/internal/exec"
)

// SharedRepCache was the cross-query representation cache. It is gone: no
// workload ever read back what it held, and its pixels were bit-identical to
// the transform, so a statement's answer never depended on it. What remains
// keeps the frozen benchmark harness (bench/trace.go) compiling.
//
// Deprecated: a no-op; delete it when a harness PR drops the calls.
type SharedRepCache struct{}

// NewSharedRepCache returns an inert cache, rejecting a non-positive
// capacity as the removed cache did.
//
// Deprecated: a no-op; delete it when a harness PR drops the calls.
func NewSharedRepCache(capacityBytes int64) (*SharedRepCache, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("repstore: shared rep cache capacity must be positive, got %d", capacityBytes)
	}
	return &SharedRepCache{}, nil
}

// SetRepCache does nothing: there is no cross-query representation cache.
//
// Deprecated: a no-op; delete it when a harness PR drops the calls.
func (db *DB) SetRepCache(*SharedRepCache) {}

// SetQuantization does nothing: every level scores float32, so there is no
// scoring representation to select and no state to publish.
//
// Deprecated: a no-op; delete it when a harness PR drops the calls.
func (db *DB) SetQuantization(exec.QuantMode) {}
