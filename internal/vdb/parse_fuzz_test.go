package vdb

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/scenario"
)

// printQuery renders a parsed statement back as SQL: metadata conditions
// before content ones (Query keeps each kind in order but not how they
// interleave), categories as quoted literals. Parsing the result must give
// the same Query.
func printQuery(q *Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case q.Star:
		b.WriteString("*")
	case q.CountStar:
		b.WriteString("COUNT(*)")
	default:
		b.WriteString(strings.Join(q.Columns, ", "))
	}
	b.WriteString(" FROM " + q.Table)
	var conds []string
	for _, mc := range q.Meta {
		conds = append(conds, mc.Column+" "+string(mc.Op)+" "+mc.Val.String())
	}
	for _, cc := range q.Content {
		cond := "contains_object('" + cc.Category + "')"
		if cc.Negated {
			cond = "NOT " + cond
		}
		conds = append(conds, cond)
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if q.Limit > 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.Limit))
	}
	return b.String()
}

// FuzzParse holds the SQL front end — the one decoder every /query and
// /explain body reaches — to its contract on arbitrary text: Parse never
// panics and never allocates more than a small multiple of its input; a
// statement it accepts prints back to SQL that parses to the same Query (a
// parse → print → parse fixpoint); and, prepared against an empty in-memory
// DB, it yields a plan or a *PlanError, never a panic and never an untyped
// error. The committed corpus (testdata/fuzz/FuzzParse) holds statements
// drawn from the differential test's generator plus malformed literals,
// unterminated strings, deep AND chains and non-ASCII bytes inside and
// outside quoted literals.
func FuzzParse(f *testing.F) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		f.Fatal(err)
	}
	db := New(cm)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	f.Add("SELECT id, ts FROM images WHERE ts >= 10 AND NOT contains_object('cloak') LIMIT 3")
	f.Fuzz(func(t *testing.T, sql string) {
		var q *Query
		var perr error
		got := allocatedBy(func() { q, perr = Parse(sql) })
		// Under the token bound the token list and the AST are at most ~100
		// KiB whatever the input; beyond that Parse copies at most a
		// lowercased name or a rejected literal per byte it was given.
		if limit := uint64(4*len(sql) + 256<<10); got > limit {
			t.Fatalf("%d-byte input: Parse allocated %d bytes, limit %d", len(sql), got, limit)
		}
		if perr != nil {
			return
		}
		printed := printQuery(q)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its print %q fails: %v", sql, printed, err)
		}
		if !reflect.DeepEqual(again, q) {
			t.Fatalf("Parse(%q) = %+v, but its print %q parses to %+v", sql, q, printed, again)
		}
		if _, err := db.Explain(sql, cons); err != nil {
			if _, typed := err.(*PlanError); !typed {
				t.Fatalf("Explain(%q) = %T %v, want a plan or a *PlanError", sql, err, err)
			}
		}
	})
}
