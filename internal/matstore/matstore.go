// Package matstore implements the label materialization layer: persistable
// per-(predicate, cascade) label bitmaps with row-range validity, plus the
// usage accounting that drives the background analyzer. Tahoma's cascades
// are deterministic, so a predicate's labels over a fixed corpus are a
// materializable column — once a (cascade, row) pair has been classified,
// every later query can serve it as a bitmap lookup instead of inference.
//
// Columns are backed by two bitsets (labels and per-row validity) so that
// fully covered predicates reduce to word-parallel AND/ANDNOT, and the
// store keeps a TiDB-style usage table (per-key touch counts) so background
// capacity is spent only on the predicates queries actually ask about.
//
// Concurrency: a column held by the Store is a published, immutable version.
// Queries pin the current set (Columns) and read it without any lock; fresh
// labels are written into a private overlay Column and folded in by Publish,
// which installs a new version instead of touching the old one. The owner
// (vdb.DB) serializes everything that changes the set — Publish, Invalidate,
// Restore — under its own lock. The usage table and the lookup/analyzer
// counters are synchronized here, so the read path records its bookkeeping
// without that lock. The store never calls back into its owner, so no lock
// ordering issue can arise.
package matstore

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"tahoma/internal/bitset"
)

// Key identifies one materialized column: the predicate category plus the
// identity of the cascade that produced the labels. Different cascades of
// the same predicate (say, selected under different accuracy constraints)
// materialize independently — their labels can legitimately differ.
type Key struct {
	Category string
	Cascade  string
}

// Column is a partially materialized virtual predicate column: a label
// bitmap plus a per-row validity bitmap. A label bit is meaningful only where
// the validity bit is set; invalid rows keep their label bit zero. A column
// is either a private overlay its one owner fills (NewColumn, CopyN), or a
// version a Store published — frozen: many readers, and every mutating
// method panics. Read methods accept a live set longer than the column; rows
// past its end have no label.
type Column struct {
	labels *bitset.Set
	valid  *bitset.Set
	prefix int // rows [0,prefix) are all valid (ingest watermark)
	// frozen marks a published version; covered is its valid-row count,
	// taken once at publication so plan-time coverage reads are O(1).
	frozen  bool
	covered int
}

// none stands in for every column a Columns set does not hold.
var none = NewColumn().freeze()

// NewColumn returns an empty column.
func NewColumn() *Column {
	return &Column{labels: bitset.New(0), valid: bitset.New(0)}
}

func (c *Column) mutable() {
	if c.frozen {
		panic("matstore: write to a published column (fill an overlay and Publish it)")
	}
}

// freeze turns c into a published version: the all-valid watermark advances
// (from where the previous version left it, so steady-state ingest pays for
// the new tail only) and the coverage count is fixed.
func (c *Column) freeze() *Column {
	for c.prefix < c.valid.Len() && c.valid.Get(c.prefix) {
		c.prefix++
	}
	c.covered = c.valid.Count()
	c.frozen = true
	return c
}

// Len returns the number of rows the column spans (valid or not).
func (c *Column) Len() int { return c.valid.Len() }

// Grow extends the column with invalid rows up to n.
func (c *Column) Grow(n int) {
	c.mutable()
	c.labels.Grow(n)
	c.valid.Grow(n)
}

// Label returns row i's label. Only meaningful when Valid(i).
func (c *Column) Label(i int) bool { return c.labels.Get(i) }

// Valid reports whether row i has a cached label.
func (c *Column) Valid(i int) bool { return c.valid.Get(i) }

// SetLabel caches row i's label, marking the row valid.
func (c *Column) SetLabel(i int, label bool) {
	c.mutable()
	if label {
		c.labels.Set(i)
	} else {
		c.labels.Clear(i)
	}
	c.valid.Set(i)
}

// InvalidN returns up to max of the rows in [0,n) with no cached label,
// lowest first (max < 0 means all) — the ingest trigger's backfill list and
// the analyzer's bounded batch. The scan starts at the all-valid watermark.
func (c *Column) InvalidN(n, max int) []int {
	var out []int
	for i := c.prefix; i < n && (max < 0 || len(out) < max); i++ {
		if i >= c.valid.Len() || !c.valid.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// Coverage counts the valid rows.
func (c *Column) Coverage() int {
	if c.frozen {
		return c.covered
	}
	return c.valid.Count()
}

// Bytes reports the column's resident footprint (both bitmaps).
func (c *Column) Bytes() int64 {
	return int64(len(c.labels.Words())+len(c.valid.Words())) * 8
}

// CopyN returns a private, mutable copy spanning n rows: c's first n rows,
// zero-extended with invalid rows when c is shorter.
func (c *Column) CopyN(n int) *Column {
	cp := &Column{labels: bitset.New(n), valid: bitset.New(n), prefix: c.prefix}
	if cp.prefix > n {
		cp.prefix = n
	}
	copyPrefixInto(cp.labels, c.labels, n)
	copyPrefixInto(cp.valid, c.valid, n)
	return cp
}

// copyPrefixInto copies the first n bits of src into dst (dst.Len() == n),
// word-parallel with the tail masked.
func copyPrefixInto(dst, src *bitset.Set, n int) {
	dw := dst.Words()
	copy(dw, src.Words())
	if n%64 != 0 && len(dw) > 0 {
		dw[len(dw)-1] &= (1 << (uint(n) & 63)) - 1
	}
}

// MergeDelta folds a private column's valid labels into c, first-writer-wins:
// rows c already validated keep their labels. c may span more rows than priv;
// only the common prefix merges. emit (when non-nil) receives every newly
// adopted (row, label) pair — the exact state change, which the durability
// layer journals so a replayed merge reproduces it bit-identically. Returns
// the number of rows adopted.
func (c *Column) MergeDelta(priv *Column, emit func(row int, label bool)) int {
	c.mutable()
	n := priv.Len()
	if n > c.Len() {
		n = c.Len()
	}
	words := (n + 63) / 64
	cv, cl := c.valid.Words(), c.labels.Words()
	pv, pl := priv.valid.Words(), priv.labels.Words()
	adopted := 0
	for w := 0; w < words; w++ {
		mask := ^uint64(0)
		if w == words-1 && n%64 != 0 {
			mask = (1 << (uint(n) & 63)) - 1
		}
		adopt := pv[w] &^ cv[w] & mask
		if adopt == 0 {
			continue
		}
		adopted += bits.OnesCount64(adopt)
		cv[w] |= adopt
		cl[w] |= pl[w] & adopt
		if emit != nil {
			for rest := adopt; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				row := w*64 + bit
				emit(row, pl[w]&(1<<uint(bit)) != 0)
			}
		}
	}
	return adopted
}

// Covers reports whether every member of live has a valid label — the
// word-parallel precondition for Narrow serving a query step exactly.
func (c *Column) Covers(live *bitset.Set) bool {
	lw, vw := live.Words(), c.valid.Words()
	for w, word := range lw {
		if w >= len(vw) {
			if word != 0 {
				return false
			}
			continue
		}
		if word&^vw[w] != 0 {
			return false
		}
	}
	return true
}

// Hits counts the members of live that have a valid label: the lookups the
// column serves that would otherwise have been classifications.
func (c *Column) Hits(live *bitset.Set) int {
	lw, vw := live.Words(), c.valid.Words()
	if len(lw) > len(vw) {
		lw = lw[:len(vw)]
	}
	n := 0
	for w, word := range lw {
		n += bits.OnesCount64(word & vw[w])
	}
	return n
}

// ClearValid removes from need every row that has a valid label, leaving
// the rows still to classify.
func (c *Column) ClearValid(need *bitset.Set) {
	nw, vw := need.Words(), c.valid.Words()
	if len(nw) > len(vw) {
		nw = nw[:len(vw)]
	}
	for w := range nw {
		nw[w] &^= vw[w]
	}
}

// Narrow intersects live with the column's labels, word-parallel: a covered
// predicate is a bitmap AND (ANDNOT for a negated condition). Exact only over
// rows the column Covers — a row it has not classified reads as label=false.
func (c *Column) Narrow(live *bitset.Set, negated bool) {
	lw, cw := live.Words(), c.labels.Words()
	m := len(lw)
	if m > len(cw) {
		m = len(cw)
	}
	if negated {
		for w := 0; w < m; w++ {
			lw[w] &^= cw[w]
		}
		return
	}
	for w := 0; w < m; w++ {
		lw[w] &= cw[w]
	}
	for w := m; w < len(lw); w++ {
		lw[w] = 0
	}
}

// usage is one key's TiDB-style predicate-usage row: how often queries
// touched it and a recency clock that breaks the analyzer's ties.
type usage struct {
	touches int64
	last    int64 // store clock at most recent touch
}

// Columns is an immutable set of published columns — what a read state pins
// with the row count it was published for. The map is never written after
// publication; a change to the set installs a fresh one.
type Columns map[Key]*Column

// Get returns k's column, or an empty one when the set has none.
func (cs Columns) Get(k Key) *Column {
	if col, ok := cs[k]; ok {
		return col
	}
	return none
}

// with returns a copy of cs with k bound to col.
func (cs Columns) with(k Key, col *Column) Columns {
	next := make(Columns, len(cs)+1)
	for key, c := range cs {
		next[key] = c
	}
	next[k] = col
	return next
}

// Store owns the materialized columns for one DB: the published set,
// first-writer-wins publication of fresh labels, usage tracking, and
// corpus-generation invalidation. It has no byte budget: a column exists only
// for a cascade the planner picked from its predicate's Pareto frontier, so a
// predicate holds at most one column per frontier point, and a column costs
// 2 bits per row. See the package comment for what the owner must serialize.
type Store struct {
	gen  int64 // bumped on Invalidate; labels are per-generation
	cols Columns

	umu   sync.Mutex // guards clock and use
	clock int64      // logical touch clock
	use   map[Key]*usage

	hits, misses    atomic.Int64 // label lookups served / classified
	analyzerBatches atomic.Int64
	analyzerRows    atomic.Int64
}

// New returns an empty store.
func New() *Store {
	return &Store{cols: Columns{}, use: make(map[Key]*usage)}
}

// Generation returns the corpus generation the resident columns describe.
func (s *Store) Generation() int64 { return s.gen }

// Columns returns the current published set.
func (s *Store) Columns() Columns { return s.cols }

// Coverage returns the number of valid rows in k's column (0 if absent).
func (s *Store) Coverage(k Key) int { return s.cols.Get(k).Coverage() }

// Publish folds fresh's valid labels into k's column and installs the result
// as k's next version, first-writer-wins: rows the current version already
// holds keep their labels (classification is deterministic per (cascade,
// row), so the values are identical either way and publication order cannot
// change any result). The current version is left untouched for the readers
// that pinned it. emit (when non-nil) receives every newly adopted (row,
// label) pair — the exact state change, which the durability layer journals.
// Returns the number of rows adopted; zero installs nothing.
func (s *Store) Publish(k Key, fresh *Column, emit func(row int, label bool)) int {
	cur := s.cols.Get(k)
	n := cur.Len()
	if fresh.Len() > n {
		n = fresh.Len()
	}
	next := cur.CopyN(n)
	adopted := next.MergeDelta(fresh, emit)
	if adopted > 0 {
		s.cols = s.cols.with(k, next.freeze())
	}
	return adopted
}

// Touch records one query touching k — the usage signal the analyzer ranks
// by — and refreshes k's recency.
func (s *Store) Touch(k Key) {
	s.umu.Lock()
	defer s.umu.Unlock()
	s.clock++
	u, ok := s.use[k]
	if !ok {
		u = &usage{}
		s.use[k] = u
	}
	u.touches++
	u.last = s.clock
}

// RecordLookup accumulates label-lookup accounting: hits are rows served
// from materialized columns, misses rows that had to be classified.
func (s *Store) RecordLookup(hits, misses int64) {
	s.hits.Add(hits)
	s.misses.Add(misses)
}

// RecordAnalyzer accumulates one background-analyzer batch of rows.
func (s *Store) RecordAnalyzer(rows int) {
	s.analyzerBatches.Add(1)
	s.analyzerRows.Add(int64(rows))
}

// Hottest returns the most-touched key whose column in cols does not yet
// cover rows — the analyzer's next target over the state it pinned. Ties
// break by recency, then by key for determinism. ok is false when every
// touched key is fully covered.
func (s *Store) Hottest(cols Columns, rows int) (Key, bool) {
	s.umu.Lock()
	defer s.umu.Unlock()
	var best Key
	var bestUse *usage
	for k, u := range s.use {
		if cols.Get(k).Coverage() >= rows {
			continue
		}
		if bestUse == nil || u.touches > bestUse.touches ||
			(u.touches == bestUse.touches && (u.last > bestUse.last ||
				(u.last == bestUse.last && keyLess(k, best)))) {
			best, bestUse = k, u
		}
	}
	return best, bestUse != nil
}

func keyLess(a, b Key) bool {
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	return a.Cascade < b.Cascade
}

// Invalidate drops every column and bumps the corpus generation — corpus
// swap and zoo reinstall both make resident labels meaningless. Usage
// counts survive: they describe the query workload, not the corpus, and
// keep steering the analyzer after a swap. Readers that pinned the dropped
// set keep reading it; labels they computed against it are refused at
// publication by the generation check their owner makes.
func (s *Store) Invalidate() {
	s.gen++
	s.cols = Columns{}
}

// Bytes reports the resident footprint of every column.
func (s *Store) Bytes() int64 {
	var b int64
	for _, col := range s.cols {
		b += col.Bytes()
	}
	return b
}

// UsageState is the usage table's serializable form: the logical clock and
// every key's touch accounting. It exists for checkpoints — the usage table
// describes the query workload, which a restarted process should keep
// steering by rather than relearn from zero.
type UsageState struct {
	Clock   int64
	Entries []UsageStateEntry
}

// UsageStateEntry is one key's row in a UsageState.
type UsageStateEntry struct {
	Category string
	Cascade  string
	Touches  int64
	Last     int64
}

// ExportUsage snapshots the usage table, entries sorted by key.
func (s *Store) ExportUsage() UsageState {
	s.umu.Lock()
	defer s.umu.Unlock()
	u := UsageState{Clock: s.clock}
	for k, use := range s.use {
		u.Entries = append(u.Entries, UsageStateEntry{
			Category: k.Category, Cascade: k.Cascade, Touches: use.touches, Last: use.last,
		})
	}
	sort.Slice(u.Entries, func(i, j int) bool {
		a, b := u.Entries[i], u.Entries[j]
		return keyLess(Key{a.Category, a.Cascade}, Key{b.Category, b.Cascade})
	})
	return u
}

// RestoreUsage replaces the usage table with a previously exported snapshot.
func (s *Store) RestoreUsage(u UsageState) {
	s.umu.Lock()
	defer s.umu.Unlock()
	s.clock = u.Clock
	s.use = make(map[Key]*usage, len(u.Entries))
	for _, e := range u.Entries {
		s.use[Key{Category: e.Category, Cascade: e.Cascade}] = &usage{touches: e.Touches, last: e.Last}
	}
}

// UsageEntry is one key's row in the stats snapshot.
type UsageEntry struct {
	Category string `json:"category"`
	Cascade  string `json:"cascade"`
	Touches  int64  `json:"touches"`
	Covered  int    `json:"covered_rows"`
	Rows     int    `json:"rows"`
}

// Stats is the store's observability snapshot.
type Stats struct {
	Columns         int          `json:"columns"`
	CoveredRows     int64        `json:"covered_rows"`
	Bytes           int64        `json:"bytes"`
	Hits            int64        `json:"hits"`
	Misses          int64        `json:"misses"`
	AnalyzerBatches int64        `json:"analyzer_batches"`
	AnalyzerRows    int64        `json:"analyzer_rows"`
	Generation      int64        `json:"generation"`
	Usage           []UsageEntry `json:"usage,omitempty"`
}

// Stats snapshots the store: coverage, footprint, lookup and analyzer
// counters, and the usage table sorted hottest-first.
func (s *Store) Stats() Stats {
	st := Stats{
		Columns:         len(s.cols),
		Bytes:           s.Bytes(),
		Hits:            s.hits.Load(),
		Misses:          s.misses.Load(),
		AnalyzerBatches: s.analyzerBatches.Load(),
		AnalyzerRows:    s.analyzerRows.Load(),
		Generation:      s.gen,
	}
	for _, col := range s.cols {
		st.CoveredRows += int64(col.Coverage())
	}
	s.umu.Lock()
	for k, u := range s.use {
		col := s.cols.Get(k)
		st.Usage = append(st.Usage, UsageEntry{
			Category: k.Category, Cascade: k.Cascade, Touches: u.touches,
			Covered: col.Coverage(), Rows: col.Len(),
		})
	}
	s.umu.Unlock()
	sort.Slice(st.Usage, func(i, j int) bool {
		a, b := st.Usage[i], st.Usage[j]
		if a.Touches != b.Touches {
			return a.Touches > b.Touches
		}
		return keyLess(Key{a.Category, a.Cascade}, Key{b.Category, b.Cascade})
	})
	return st
}
