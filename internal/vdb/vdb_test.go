package vdb

import (
	"math/rand"
	"strings"
	"testing"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
)

func TestParseBasics(t *testing.T) {
	q, err := Parse("SELECT * FROM images WHERE location = 'uptown' AND contains_object('fence') LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star || q.Table != "images" || q.Limit != 5 {
		t.Fatalf("parsed: %+v", q)
	}
	if len(q.Meta) != 1 || q.Meta[0].Column != "location" || q.Meta[0].Op != OpEq || q.Meta[0].Val.Str != "uptown" {
		t.Fatalf("meta: %+v", q.Meta)
	}
	if len(q.Content) != 1 || q.Content[0].Category != "fence" || q.Content[0].Negated {
		t.Fatalf("content: %+v", q.Content)
	}
}

func TestParseVariants(t *testing.T) {
	cases := []string{
		"select count(*) from images",
		"SELECT id, ts FROM images WHERE ts >= 100 AND ts < 200",
		"select id from images where not contains_object('coho')",
		"SELECT * FROM images WHERE contains_object(fence)",
		"select * from images where id != 3",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
		}
	}
	q, _ := Parse("select count(*) from images")
	if !q.CountStar {
		t.Fatal("count(*) not detected")
	}
	q, _ = Parse("select id from images where not contains_object('coho')")
	if !q.Content[0].Negated {
		t.Fatal("NOT not detected")
	}
}

// TestParseTokenBound: a statement may run to maxTokens tokens — a chain of
// 255 conditions — and one token more is refused before it is parsed.
func TestParseTokenBound(t *testing.T) {
	chain := func(conds int) string {
		return "SELECT id FROM images WHERE " + strings.TrimSuffix(strings.Repeat("ts >= 1 AND ", conds), " AND ")
	}
	// Five tokens before the first condition, three per condition, one AND
	// between each pair: 4·conds + 4.
	q, err := Parse(chain(255))
	if err != nil || len(q.Meta) != 255 {
		t.Fatalf("1024-token statement: %v", err)
	}
	if _, err := Parse(chain(256)); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Fatalf("1028-token statement: %v, want the token bound", err)
	}
	// Past the bound nothing more is built: a megabyte of one-byte tokens
	// costs what a long statement does, not a token list sized by the input.
	big := strings.Repeat("(", 1<<20)
	if got := allocatedBy(func() { Parse(big) }); got > 256<<10 {
		t.Fatalf("1 MiB of tokens: Parse allocated %d bytes", got)
	}
}

// TestParseASCII: outside a quoted literal the dialect is ASCII, so a byte
// of a multi-byte character is an unexpected character — not a Latin-1
// letter, not a space — while a quoted literal keeps whatever bytes it holds.
func TestParseASCII(t *testing.T) {
	for _, tc := range []struct {
		name, sql string
		err       string // empty: must parse
	}{
		{"bare-a-grave", "SELECT id FROM images WHERE contains_object(\u00e0)", "unexpected character 'à'"},
		{"bare-cafe", "SELECT id FROM images WHERE contains_object(caf\u00e9)", "unexpected character 'é'"},
		{"stray-nbsp", "SELECT\xa0id FROM images", "unexpected character"},
		{"stray-nel", "SELECT id\x85FROM images", "unexpected character"},
		{"latin1-letter", "SELECT A FROM \xea0", "unexpected character"},
		{"quoted-category", "SELECT id FROM images WHERE contains_object('\u00e0')", ""},
		{"quoted-bytes", "SELECT id FROM images WHERE location = '\xea\xa0'", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse(tc.sql)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Parse(%q) = %+v, %v; want an error containing %q", tc.sql, q, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.sql, err)
			}
			if len(q.Content) == 1 && q.Content[0].Category != "\u00e0" {
				t.Fatalf("quoted category %q, want %q", q.Content[0].Category, "\u00e0")
			}
			if len(q.Meta) == 1 && q.Meta[0].Val.Str != "\xea\xa0" {
				t.Fatalf("quoted literal %q, want its bytes kept", q.Meta[0].Val.Str)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"DELETE FROM images",
		"SELECT FROM images",
		"SELECT * images",
		"SELECT * FROM images WHERE",
		"SELECT * FROM images WHERE location ~ 'x'",
		"SELECT * FROM images WHERE contains_object()",
		"SELECT * FROM images WHERE location = 'unterminated",
		"SELECT * FROM images LIMIT 0",
		"SELECT * FROM images LIMIT x",
		"SELECT * FROM images WHERE NOT location = 'x'",
		"SELECT * FROM images trailing",
		"SELECT * FROM images WHERE location = ",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) accepted invalid SQL", sql)
		}
	}
}

// buildTestDB assembles a DB whose corpus is the eval split of a tiny
// trained system, so ground truth for contains_object is known.
func buildTestDB(t *testing.T) (*DB, []bool) {
	t.Helper()
	cat, err := synth.CategoryByName("cloak")
	if err != nil {
		t.Fatal(err)
	}
	splits, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Initialize("cloak", splits, core.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := New(cm)
	var images []*img.Image
	var meta []Metadata
	var truth []bool
	locations := []string{"uptown", "downtown"}
	for i, e := range splits.Eval.Examples {
		images = append(images, e.Image)
		meta = append(meta, Metadata{
			ID:       int64(i),
			Location: locations[i%2],
			Camera:   "cam-1",
			TS:       int64(i * 10),
		})
		truth = append(truth, e.Label)
	}
	if err := db.LoadCorpus(images, meta); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallPredicate("cloak", sys, 2); err != nil {
		t.Fatal(err)
	}
	return db, truth
}

func TestEndToEndQuery(t *testing.T) {
	db, truth := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}

	// Count all rows.
	res, err := db.Query("SELECT COUNT(*) FROM images", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 40 || res.Rows[0][0].Int != 40 {
		t.Fatalf("count: %+v", res)
	}

	// Metadata-only filter: no UDF calls at all.
	res, err = db.Query("SELECT id FROM images WHERE location = 'uptown'", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 20 || res.UDFCalls != 0 {
		t.Fatalf("metadata filter: count=%d udf=%d", res.Count, res.UDFCalls)
	}

	// Content query: should classify reasonably close to ground truth.
	res, err = db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 40 {
		t.Fatalf("expected 40 UDF calls, got %d", res.UDFCalls)
	}
	reported := make(map[int64]bool)
	for _, row := range res.Rows {
		reported[row[0].Int] = true
	}
	agree := 0
	for i, label := range truth {
		if reported[int64(i)] == label {
			agree++
		}
	}
	if float64(agree)/float64(len(truth)) < 0.6 {
		t.Fatalf("content predicate agreement %d/%d too low", agree, len(truth))
	}

	// Second identical query must be served from the materialized column.
	res2, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UDFCalls != 0 {
		t.Fatalf("materialization failed: %d UDF calls on repeat", res2.UDFCalls)
	}
	if res2.Count != res.Count {
		t.Fatal("materialized column disagrees with fresh run")
	}

	// Metadata predicate reduces UDF calls (fresh DB to avoid the cache).
	db2, _ := buildTestDB(t)
	res3, err := db2.Query("SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res3.UDFCalls != 20 {
		t.Fatalf("metadata pushdown failed: %d UDF calls, want 20", res3.UDFCalls)
	}

	// NOT contains_object partitions the corpus with the cached column.
	resNeg, err := db.Query("SELECT id FROM images WHERE NOT contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if resNeg.Count+res.Count != 40 {
		t.Fatalf("negated predicate does not partition: %d + %d != 40", resNeg.Count, res.Count)
	}

	// LIMIT applies after filtering.
	resLim, err := db.Query("SELECT id FROM images LIMIT 7", cons)
	if err != nil {
		t.Fatal(err)
	}
	if resLim.Count != 7 || len(resLim.Rows) != 7 {
		t.Fatalf("limit: %+v", resLim.Count)
	}
}

// TestPartialMaterializationReuse: rows classified under a metadata filter
// must land in the materialized column, so a later broader query only pays
// for rows it has not yet seen (the seed re-classified everything when a
// filter made materialization partial).
func TestPartialMaterializationReuse(t *testing.T) {
	db, _ := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}

	res, err := db.Query("SELECT id FROM images WHERE location = 'uptown' AND contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if res.UDFCalls != 20 {
		t.Fatalf("filtered query ran %d classifications, want 20", res.UDFCalls)
	}

	// EXPLAIN between the queries reports the partial column.
	out, err := db.Explain("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "partially materialized: 20/40 rows cached") {
		t.Fatalf("explain does not report partial materialization:\n%s", out)
	}

	// The full scan reuses the 20 cached rows and classifies only the rest.
	full, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if full.UDFCalls != 20 {
		t.Fatalf("full scan after filtered query ran %d classifications, want 20", full.UDFCalls)
	}

	// A fresh DB's full scan must agree row-for-row with the incremental one.
	db2, _ := buildTestDB(t)
	fresh, err := db2.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Count != full.Count {
		t.Fatalf("incremental column (%d rows) disagrees with fresh run (%d rows)", full.Count, fresh.Count)
	}
}

// TestExecOptionsParity: labels are identical at every engine sizing.
func TestExecOptionsParity(t *testing.T) {
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	db, _ := buildTestDB(t)
	base, err := db.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []exec.Options{{Workers: 1, Batch: 1}, {Workers: 4, Batch: 3}, {Workers: 2, Batch: 64}} {
		db2, _ := buildTestDB(t)
		db2.SetExecOptions(o)
		res, err := db2.Query("SELECT id FROM images WHERE contains_object('cloak')", cons)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != base.Count || res.UDFCalls != base.UDFCalls {
			t.Fatalf("opts %+v: count=%d udf=%d, want count=%d udf=%d",
				o, res.Count, res.UDFCalls, base.Count, base.UDFCalls)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := buildTestDB(t)
	cons := core.Constraints{MaxAccuracyLoss: 0.05}
	if _, err := db.Query("SELECT * FROM videos", cons); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := db.Query("SELECT bogus FROM images", cons); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := db.Query("SELECT * FROM images WHERE bogus = 1", cons); err == nil {
		t.Fatal("unknown filter column must error")
	}
	if _, err := db.Query("SELECT * FROM images WHERE contains_object('zebra')", cons); err == nil {
		t.Fatal("uninstalled predicate must error")
	}
	if _, err := db.Query("SELECT * FROM images WHERE id = 'abc'", cons); err == nil {
		t.Fatal("type mismatch must error")
	}
	if _, err := db.Query("SELECT * FROM images", core.Constraints{MinThroughput: 1e18}); err == nil {
		t.Log("note: no content predicate, constraints unused — acceptable")
	}
	if _, err := db.Query("SELECT * FROM images WHERE contains_object('cloak')",
		core.Constraints{MinThroughput: 1e18}); err == nil {
		t.Fatal("unreachable throughput constraint must error")
	}
}

func TestExplain(t *testing.T) {
	db, _ := buildTestDB(t)
	out, err := db.Explain("SELECT id FROM images WHERE ts >= 100 AND contains_object('cloak')",
		core.Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scan images (40 rows)", "Filter: ts >= 100", "contains_object(cloak)", "est. accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestInstallErrors(t *testing.T) {
	cm, _ := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	db := New(cm)
	if err := db.LoadCorpus([]*img.Image{img.New(4, 4, img.RGB)}, nil); err == nil {
		t.Fatal("mismatched corpus must error")
	}
	if got := db.Predicates(); len(got) != 0 {
		t.Fatal("fresh DB should have no predicates")
	}
}

// TestParseNeverPanics feeds the parser arbitrary byte soup and mutated
// valid queries: it may reject them, but must never panic.
func TestParseNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT * FROM images WHERE location = 'uptown' AND contains_object('fence') LIMIT 5",
		"select count(*) from images",
		"SELECT id, ts FROM images WHERE ts >= 100",
	}
	rng := rand.New(rand.NewSource(77))
	alphabet := "SELECTFROMWHEREANDNOTLIMIT()*,'=!<>_abc0123456789 \t\n"
	for trial := 0; trial < 3000; trial++ {
		var input string
		if trial%2 == 0 {
			// Mutate a valid query: splice, truncate, duplicate.
			s := []byte(seeds[rng.Intn(len(seeds))])
			for k := 0; k < 1+rng.Intn(4); k++ {
				switch rng.Intn(3) {
				case 0: // random byte overwrite
					s[rng.Intn(len(s))] = alphabet[rng.Intn(len(alphabet))]
				case 1: // truncate
					s = s[:rng.Intn(len(s)+1)]
				case 2: // duplicate a chunk
					if len(s) > 2 {
						i := rng.Intn(len(s) - 1)
						j := i + 1 + rng.Intn(len(s)-i-1)
						s = append(s[:j:j], append(append([]byte{}, s[i:j]...), s[j:]...)...)
					}
				}
				if len(s) == 0 {
					break
				}
			}
			input = string(s)
		} else {
			// Pure random soup.
			n := rng.Intn(60)
			b := make([]byte, n)
			for i := range b {
				b[i] = alphabet[rng.Intn(len(alphabet))]
			}
			input = string(b)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", input, r)
				}
			}()
			_, _ = Parse(input)
		}()
	}
}
