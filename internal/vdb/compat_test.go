package vdb

import "testing"

// TestCompatShimsInert: the removed cross-query cache's shims keep the frozen
// harness compiling and do nothing else — the capacity check survives, and
// "installing" the cache publishes no new read state.
func TestCompatShimsInert(t *testing.T) {
	if _, err := NewSharedRepCache(0); err == nil {
		t.Fatal("non-positive capacity accepted")
	}
	rc, err := NewSharedRepCache(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	db := New(nil)
	before := db.state.Load()
	db.SetRepCache(rc)
	if db.state.Load() != before {
		t.Fatal("SetRepCache changed the read state")
	}
}
