package vdb

import (
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/scenario"
)

// FuzzParse holds the SQL front end — the one decoder every /query and
// /explain body reaches — to its contract on arbitrary text: Parse never
// panics and never allocates more than a small multiple of its input, and a
// statement it accepts, prepared against an empty in-memory DB, yields a plan
// or a *PlanError, never a panic and never an untyped error. The committed
// corpus (testdata/fuzz/FuzzParse) holds statements drawn from the
// differential test's generator plus malformed literals, unterminated strings
// and deep AND chains.
func FuzzParse(f *testing.F) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	db := New(cm)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	f.Add("SELECT id, ts FROM images WHERE ts >= 10 AND NOT contains_object('cloak') LIMIT 3")
	f.Fuzz(func(t *testing.T, sql string) {
		var perr error
		got := allocatedBy(func() { _, perr = Parse(sql) })
		// Under the token bound the token list and the AST are at most ~100
		// KiB whatever the input; beyond that Parse copies at most a
		// lowercased name or a rejected literal per byte it was given.
		if limit := uint64(4*len(sql) + 256<<10); got > limit {
			t.Fatalf("%d-byte input: Parse allocated %d bytes, limit %d", len(sql), got, limit)
		}
		if perr != nil {
			return
		}
		if _, err := db.Explain(sql, cons); err != nil {
			if _, typed := err.(*PlanError); !typed {
				t.Fatalf("Explain(%q) = %T %v, want a plan or a *PlanError", sql, err, err)
			}
		}
	})
}
