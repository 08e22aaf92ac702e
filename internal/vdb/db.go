package vdb

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/pareto"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

// Predicate is an installed contains_object operator: the TAHOMA system for
// one category plus its evaluated cascade set under the DB's deployment
// scenario. Installation corresponds to the paper's per-predicate system
// initialization; the frontier is reused by every query.
type Predicate struct {
	Category string
	System   *core.System
	Results  []cascade.Result
	Frontier []pareto.Point
	// installed holds every frontier cascade as built at install, keyed by
	// its Results index. Never written once published.
	installed map[int]*installedCascade
}

// installedCascade is one frontier cascade as InstallPredicate builds it:
// its executable form, and what every plan naming it would otherwise derive
// again from its Spec — its identity, its materialized column's key and its
// per-level costs under the DB's cost model. A single-cascade run — a
// sequential query step, the ingest trigger, the analyzer — uses the
// runtime's engine, so warm workers keep their model clones and pooled
// buffers from one statement to the next.
type installedCascade struct {
	rt     *cascade.Runtime
	key    matstore.Key // Cascade is the Spec's ID
	levels []planner.LevelCost
}

// install builds the installed form of Results[i] under cost model cm.
func (p *Predicate) install(i int, cm scenario.CostModel) (*installedCascade, error) {
	spec := p.Results[i].Spec
	rt, err := p.System.Runtime(spec)
	if err != nil {
		return nil, err
	}
	levels, err := levelCosts(p.System, spec, cm)
	if err != nil {
		return nil, err
	}
	return &installedCascade{rt: rt, key: matKey(p, spec), levels: levels}, nil
}

// runtime returns the executable form of Results[i]: the installed runtime
// of a frontier cascade, a fresh one for any other.
func (p *Predicate) runtime(i int) (*cascade.Runtime, error) {
	if c, ok := p.installed[i]; ok {
		return c.rt, nil
	}
	return p.System.Runtime(p.Results[i].Spec)
}

// key returns the materialized-column key of Results[i]: built at install
// for a frontier cascade, computed for any other.
func (p *Predicate) key(i int) matstore.Key {
	if c, ok := p.installed[i]; ok {
		return c.key
	}
	return matKey(p, p.Results[i].Spec)
}

// column is a partially-materialized virtual predicate column: a label
// bitmap with per-row validity, extended lazily as rows are classified or
// appended. The DB keys its shared columns by (category, cascade identity)
// in the matstore, so repeated queries pay zero inference; a query that
// only classifies the survivors of a metadata filter still contributes
// those rows to the cache.
type column = matstore.Column

// matKey is the materialized-column identity for one content step.
func matKey(pred *Predicate, spec cascade.Spec) matstore.Key {
	return matstore.Key{Category: pred.Category, Cascade: spec.ID()}
}

// Corpus supplies rows by index as their stored TIMG records, the one form
// the engine reads. The in-memory implementation is what LoadCorpus
// installs; LoadCorpusFromStore installs a lazy, cache-backed view over a
// representation store, so classifying a row pays a real load — the
// physical behaviour the ARCHIVE scenario prices.
type Corpus = exec.RecordSource

// decoded is exec.Source's Image over a record source: the row's record
// expanded. The engine reads Records and never calls it.
func decoded(rec img.Record, err error) (*img.Image, error) {
	if err != nil {
		return nil, err
	}
	return rec.Image(), nil
}

// corpus is what a DB holds its rows in: the master copy writers append to,
// and what every published read state pins a row-bounded view of.
type corpus interface {
	// view returns rows [0,n) as a fixed-length Corpus: they keep resolving
	// to the same records even if an append lands mid-statement. Both
	// corpora are append-only, so the view copies no pixels.
	view(n int) Corpus
	// appendRecords writes the batch as rows [base, base+len(recs)).
	// journaled says the caller's journal vouches for the batch, so the
	// corpus need not make it durable itself.
	appendRecords(base int, recs []img.Record, journaled bool) error
}

// memoryCorpus holds its rows in memory as stored records, a quarter of their
// float32 expansion: LoadCorpus encodes each image once, and an append keeps
// the records it is handed.
type memoryCorpus struct {
	recs []img.Record
}

func (m *memoryCorpus) Len() int { return len(m.recs) }

func (m *memoryCorpus) record(i int) (img.Record, error) {
	if i < 0 || i >= len(m.recs) {
		return img.Record{}, fmt.Errorf("vdb: row %d out of range [0,%d)", i, len(m.recs))
	}
	return m.recs[i], nil
}

func (m *memoryCorpus) Records(_ context.Context, idx []int, dst []img.Record) error {
	for k, i := range idx {
		var err error
		if dst[k], err = m.record(i); err != nil {
			return err
		}
	}
	return nil
}

func (m *memoryCorpus) Image(i int) (*img.Image, error) { return decoded(m.record(i)) }

// view bounds the rows with a full slice expression, so a concurrent append
// can never write into the view's backing window.
func (m *memoryCorpus) view(n int) Corpus { return &memoryCorpus{recs: m.recs[:n:n]} }

func (m *memoryCorpus) appendRecords(_ int, recs []img.Record, _ bool) error {
	m.recs = append(m.recs, recs...)
	return nil
}

// storeCorpus is a representation store read through its record cache. Its
// views (storeView) serve the source records and the representations the
// store holds alike.
type storeCorpus struct {
	store *repstore.Store
	cache *repstore.Cache
	reps  map[string]xform.Transform // the store's transforms, by ID
	// budget is the cache's byte budget and record the stored size of one
	// source: what a run's size is weighed in (see scan).
	budget, record int64
}

// scanShare sets the run that reads through the record cache: a run that
// publishes its labels, over rows whose source records come to more than
// 1/scanShare of the cache's budget. PostgreSQL draws the same line for
// its buffer pool — a sequential scan of a table larger than a quarter of
// shared_buffers runs under the bulk-read strategy, through a small ring of
// buffers, instead of flushing the shared pool (heapam.c, initscan).
const scanShare = 4

// scan reports whether a publishing run over rows rows reads through: a
// run that publishes never rereads its records — its labels answer every
// statement after it — so admitting more than a quarter of the budget of
// them would only evict the records that are reread.
func (s *storeCorpus) scan(rows int) bool {
	return scanShare*int64(rows)*s.record > s.budget
}

func (s *storeCorpus) view(n int) Corpus { return &storeView{sc: s, n: n} }

// read loads rows of form t through the record cache: admitted, or read
// through when through is set.
func (s *storeCorpus) read(ctx context.Context, through bool, t xform.Transform, idx []int, dst []img.Record) error {
	if through {
		return s.cache.ReadThrough(ctx, t, idx, dst)
	}
	return s.cache.Records(ctx, t, idx, dst)
}

// appendRecords writes the batch as rows [base, base+len(recs)). Journaled,
// it costs no fsync: the journal's is the commit, and the store vouches for
// the rows at the next checkpoint. Otherwise the store commits the batch
// itself (data fsync, then manifest) before returning.
func (s *storeCorpus) appendRecords(base int, recs []img.Record, journaled bool) error {
	if journaled {
		return s.store.WriteRecords(base, recs)
	}
	return s.store.AppendRecords(recs)
}

// DB is a visual analytics database over one images table. It is safe for
// concurrent use: queries, EXPLAINs and Append may overlap freely, and
// readers never wait for writers.
//
// Everything a statement reads lives in one immutable read state (see
// readState) that writers publish and readers pin: Query and Explain do one
// atomic load, then plan and execute against that state without taking db.mu
// — a statement served entirely from materialized columns never takes it at
// all. A statement that had to classify writes its labels into private
// overlay columns and publishes them at the end, under db.mu, first writer
// wins. Writers — Append, label publication from queries, triggers and the
// analyzer, InstallPredicate, every Set* — serialize on db.mu, build the next
// state and publish it with one atomic store.
//
// What a reader can observe: exactly one published state. A query that
// overlaps an Append sees either all of the batch's rows or none, never a
// partial batch; rows become visible to statements that start after the
// Append's catalog update, which is before its trigger labels are published
// and before its fsync-acknowledgement. Concurrent results are bit-identical
// to a serial run over the same published prefix, because classification is
// deterministic per row.
type DB struct {
	// mu serializes writers. The fields below it are the master copy the
	// next read state is built from; only writers touch them.
	mu    sync.RWMutex
	state atomic.Pointer[readState]

	settings
	corpus     corpus
	meta       metaTable
	zones      []zone // block index over meta's complete blocks (derived)
	costModel  scenario.CostModel
	predicates map[string]*Predicate // copied on install; published maps are never written
	trigger    TriggerPolicy
	// catalog is the adaptive selectivity store: seeded at predicate
	// install, updated from every executed query's survivor counts, read at
	// plan time. It has its own lock.
	catalog *planner.Catalog
	// mat owns the materialized label columns and their usage table. Its
	// column set changes only under mu; its usage table and counters
	// synchronize themselves (the read path records into them).
	mat        *matstore.Store
	analyzerOn bool
	// contentPlans counts executed statements with a content phase;
	// reusedPlans, executed statements that ran a plan their state kept.
	contentPlans, reusedPlans atomic.Int64
	// Durability (under mu; see durable.go). While durable, Append write-
	// ahead journals through wal, periodic checkpoints collapse the journal,
	// and corpus swaps are refused.
	durable        bool
	wal            *wal.Log
	ckptPath       string
	checkpointerOn bool
	// journaled is the bytes journaled since the last checkpoint; past
	// checkpointJournalBytes an append nudges the checkpointer through
	// ckptKick instead of waiting out its period.
	journaled int64
	ckptKick  chan struct{}
	durStats  struct {
		walReplayed       int64
		walTruncatedBytes int64
		recoveryMS        int64
		checkpoints       int64
		lastCheckpoint    time.Time
	}
}

// MatMode selects the label-materialization policy.
type MatMode int

const (
	// MatOn (the default) materializes content-predicate labels from query
	// results and ingest triggers, and serves repeat queries from the
	// bitmap columns.
	MatOn MatMode = iota
	// MatOff disables the materialized columns entirely: every query
	// re-runs inference over the metadata survivors.
	MatOff
	// MatBg is MatOn plus eligibility for the background analyzer
	// (StartAnalyzer), which pre-materializes the hottest uncovered
	// predicates while the server is idle.
	MatBg
)

// String renders the mode as its flag spelling (off|on|bg).
func (m MatMode) String() string {
	switch m {
	case MatOff:
		return "off"
	case MatBg:
		return "bg"
	default:
		return "on"
	}
}

// ParseMatMode parses a -materialize flag value.
func ParseMatMode(s string) (MatMode, error) {
	switch strings.ToLower(s) {
	case "off":
		return MatOff, nil
	case "on", "":
		return MatOn, nil
	case "bg":
		return MatBg, nil
	default:
		return MatOn, fmt.Errorf("vdb: unknown materialization mode %q (off|on|bg)", s)
	}
}

// SetMaterialization selects the label-materialization policy. Switching to
// MatOff stops consulting and extending the columns but keeps them resident
// — they stay valid for the current corpus, so switching back on resumes
// where coverage left off.
func (db *DB) SetMaterialization(m MatMode) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.matMode = m
	db.publishLocked()
}

// MatStats is the materialization layer's observability snapshot: the
// current mode ("bg" while the analyzer runs), the corpus row count the
// coverage numbers are against, and the matstore counters (coverage,
// footprint, hit/miss and analyzer progress, plus the
// per-predicate usage table).
type MatStats struct {
	Mode string `json:"mode"`
	Rows int    `json:"rows"`
	matstore.Stats
}

// MatStats snapshots the materialization layer.
func (db *DB) MatStats() MatStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	mode := db.matMode
	if db.analyzerOn && mode != MatOff {
		mode = MatBg
	}
	return MatStats{Mode: mode.String(), Rows: db.meta.len(), Stats: db.mat.Stats()}
}

// PlannerStats is the planner's observability snapshot: the executed
// content plans, the statements that reused a plan, and the adaptive
// selectivity catalog.
type PlannerStats struct {
	// ContentPlans counts executed statements with a content phase; every
	// one narrows step by step in the planner's rank order.
	ContentPlans int64
	// ReusedPlans counts executed statements that ran the plan their read
	// state kept from an earlier run of the same text under the same
	// constraints, instead of parsing and planning.
	ReusedPlans int64
	// Selectivity lists every installed predicate's current pass-rate
	// estimate, sample count and install-time seed.
	Selectivity []planner.CatalogEntry
}

// PlannerStats snapshots the plan counters and the selectivity catalog. It
// takes no DB lock.
func (db *DB) PlannerStats() PlannerStats {
	return PlannerStats{
		ContentPlans: db.contentPlans.Load(),
		ReusedPlans:  db.reusedPlans.Load(),
		Selectivity:  db.catalog.Snapshot(),
	}
}

// SetExecOptions sizes the batched execution engine used for content
// predicates (query-time and trigger-time classification). The zero value
// means GOMAXPROCS workers and the engine's default batch size. o.RepSource
// is ignored: the pinned corpus view is the one RepSource a statement reads
// (see ServeReps).
func (db *DB) SetExecOptions(o exec.Options) {
	db.mu.Lock()
	defer db.mu.Unlock()
	o.RepSource = nil
	db.execOpts = o
	db.publishLocked()
}

// ServeReps toggles loading pre-materialized representations straight from
// a store-backed corpus during content-predicate execution (default off).
// Slots the store covers skip both the source load and the derivation. A
// served record is exactly the one the engine derives from the stored source,
// so labels are the same either way: this is a pure cost choice. No-op for
// in-memory corpora.
func (db *DB) ServeReps(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.serveReps = on
	db.publishLocked()
}

// RepCacheStats returns the store-backed corpus's record cache counters,
// cumulative since load (ok is false for in-memory corpora). The cache
// fronts source record reads always and representation loads when ServeReps
// is on; callers diff two snapshots to attribute traffic to one query. The
// counters are cache-global, so the difference is exact only for a query
// that had the cache to itself.
func (db *DB) RepCacheStats() (stats repstore.CacheStats, ok bool) {
	view, ok := db.state.Load().corpus.(*storeView)
	if !ok {
		return repstore.CacheStats{}, false
	}
	return view.sc.cache.Stats(), true
}

// New creates an empty database priced under the given deployment scenario.
func New(cm scenario.CostModel) *DB {
	db := &DB{
		costModel:  cm,
		predicates: make(map[string]*Predicate),
		corpus:     &memoryCorpus{},
		catalog:    planner.NewCatalog(),
		mat:        matstore.New(),
		ckptKick:   make(chan struct{}, 1),
	}
	db.publishLocked() // nothing else can see db yet
	return db
}

// installCorpusLocked swaps in a new corpus and its metadata. Resident labels
// describe the old rows, so every materialized column is invalidated (the
// usage table survives — it describes the query workload, not the corpus —
// so the analyzer keeps steering toward the same hot predicates; statements
// still running against the old state have their labels refused at
// publication). Observed pass rates describe the old corpus too; the catalog
// falls back to its seeds. Caller holds db.mu.
func (db *DB) installCorpusLocked(c corpus, meta []Metadata) error {
	if db.durable {
		return fmt.Errorf("vdb: corpus is durable; disable durability before swapping the corpus")
	}
	db.corpus = c
	db.meta = newMetaTable(meta)
	db.zones = extendZones(nil, &db.meta)
	db.mat.Invalidate()
	db.catalog.Reset()
	db.publishLocked()
	return nil
}

// LoadCorpus installs an in-memory image corpus and its metadata (parallel
// slices). Each image is encoded once to the record the corpus holds
// (img.AppendRecord: samples clamped and quantized to 8 bits), as Append
// encodes new rows.
func (db *DB) LoadCorpus(images []*img.Image, meta []Metadata) error {
	if len(images) != len(meta) {
		return fmt.Errorf("vdb: %d images but %d metadata rows", len(images), len(meta))
	}
	recs, err := encodeRecords(images)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.installCorpusLocked(&memoryCorpus{recs: recs}, meta)
}

// LoadCorpusFromStore installs a representation store as the corpus. Rows
// are read only through an LRU record cache of cacheBytes, which must be
// positive; meta must have one row per stored image.
func (db *DB) LoadCorpusFromStore(store *repstore.Store, cacheBytes int64, meta []Metadata) error {
	if store.Count() != len(meta) {
		return fmt.Errorf("vdb: store has %d images but %d metadata rows", store.Count(), len(meta))
	}
	cache, err := repstore.NewCache(store, cacheBytes)
	if err != nil {
		return fmt.Errorf("vdb: cacheBytes: %w", err)
	}
	w, h := store.BaseSize()
	sc := &storeCorpus{store: store, cache: cache, reps: make(map[string]xform.Transform),
		budget: cacheBytes, record: int64(img.EncodedSize(w, h, img.RGB))}
	for _, t := range store.Transforms() {
		sc.reps[t.ID()] = t
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.installCorpusLocked(sc, meta)
}

// Count returns the number of rows.
func (db *DB) Count() int { return db.state.Load().n }

// InstallPredicate evaluates the system's cascade set under the DB's cost
// model and registers the category for use in queries. Evaluation — the
// expensive part — runs outside the lock, so installation does not stall
// in-flight queries over other predicates.
func (db *DB) InstallPredicate(category string, sys *core.System, maxDepth int) error {
	category = strings.ToLower(category)
	if _, dup := db.state.Load().predicates[category]; dup {
		return fmt.Errorf("vdb: predicate %q already installed", category)
	}
	results, err := sys.EvaluateCascades(sys.BuildOptions(maxDepth), db.costModel)
	if err != nil {
		return fmt.Errorf("vdb: installing %q: %w", category, err)
	}
	frontier := pareto.Frontier(core.Points(results))
	pred := &Predicate{
		Category:  category,
		System:    sys,
		Results:   results,
		Frontier:  frontier,
		installed: make(map[int]*installedCascade, len(frontier)),
	}
	for _, pt := range frontier {
		if pred.installed[pt.Index], err = pred.install(pt.Index, db.costModel); err != nil {
			return fmt.Errorf("vdb: installing %q: %w", category, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.predicates[category]; ok {
		return fmt.Errorf("vdb: predicate %q already installed", category)
	}
	// Published states share the map they were built from: install into a
	// copy.
	db.predicates = maps.Clone(db.predicates)
	db.predicates[category] = pred
	// Seed the adaptive selectivity catalog with the evaluation-set
	// positive rate — the install-time estimate every plan starts from
	// until real queries report observed pass rates.
	positives := 0
	for _, t := range sys.EvalTruth {
		if t {
			positives++
		}
	}
	seed := 0.5
	if len(sys.EvalTruth) > 0 {
		seed = float64(positives) / float64(len(sys.EvalTruth))
	}
	db.catalog.Seed(category, seed)
	db.publishLocked()
	return nil
}

// Predicates lists installed categories.
func (db *DB) Predicates() []string { return db.state.Load().predicateNames() }

// Result is a query result: either a count or a set of rows over the
// selected columns.
type Result struct {
	// Columns names the result's columns. It is read-only: it may be shared
	// with other results and with the plan that produced it.
	Columns []string
	Rows    [][]Value
	Count   int
	// UDFCalls reports how many cascade classifications ran (0 when every
	// content predicate was served from the materialized cache).
	UDFCalls int
	// MatHits counts content-predicate labels served from the materialized
	// columns over the metadata survivors, per distinct column —
	// the lookups that would have been UDF calls without materialization.
	MatHits int
	// Bitmap reports that every content predicate was fully covered over
	// the survivors, so the content phase ran as word-parallel bitmap
	// AND/ANDNOT with zero inference.
	Bitmap bool
	// RepsMaterialized and RepHits report the physical-representation
	// work of the content phase: transforms applied vs slots served
	// straight from the representation store.
	RepsMaterialized int
	RepHits          int
	// RepFallbacks counts representation-store reads that failed and were
	// degraded to decoding the source and transforming it fresh — labels
	// stay correct, the store's quantization shortcut is just skipped.
	RepFallbacks int
	// Observed reports, per content predicate that classified anything, the
	// freshly classified frames and how many carried the positive label —
	// the adaptive-selectivity feedback the DB folds into its catalog so
	// every query improves the next plan.
	Observed []ObservedSelectivity
}

// ObservedSelectivity is one content predicate's survivor accounting for a
// single query: Positives/Frames is the observed pass rate over the rows it
// classified (cached rows are not re-observed).
type ObservedSelectivity struct {
	Category  string
	Cascade   string // cascade spec ID that produced the labels
	Frames    int
	Positives int
}

// PlanError marks a failure that is the statement's fault, found before any
// row was read: SQL that does not parse, an unknown table, column or
// predicate, a literal of the wrong type for its column, or constraints no
// cascade satisfies. Query and Explain return every such failure as a
// *PlanError (and nothing else as one), so a front end can answer it as the
// caller's error and everything else as its own.
type PlanError struct{ Err error }

func (e *PlanError) Error() string { return e.Err.Error() }
func (e *PlanError) Unwrap() error { return e.Err }

// prepare parses sql and plans it against the current read state — the one
// front half Query and Explain share.
func (db *DB) prepare(sql string, constraints core.Constraints) (*queryPlan, error) {
	return db.state.Load().prepare(sql, constraints)
}

// prepare parses sql and plans it against st.
func (st *readState) prepare(sql string, constraints core.Constraints) (*queryPlan, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, &PlanError{err}
	}
	plan, err := st.plan(q, constraints)
	if err != nil {
		return nil, &PlanError{err}
	}
	return plan, nil
}

// Query parses, plans and executes sql under the user's constraints. Safe
// for concurrent use, and it waits for no writer: the statement pins the
// current read state, plans and executes against it, and takes the DB lock
// only if it classified rows whose labels it then publishes. Results are
// bit-identical to a serial run over the same rows.
func (db *DB) Query(sql string, constraints core.Constraints) (*Result, error) {
	return db.QueryContext(context.Background(), sql, constraints)
}

// QueryContext is Query with cooperative cancellation: the execution engines
// check ctx between batches and levels, so a cancelled or deadlined query
// returns promptly with ctx's error. Cancellation is an error path — the
// query's partial labels are discarded before publication, so nothing
// partial ever reaches the materialized columns or the catalog, and a retry
// returns labels bit-identical to an uninterrupted run.
//
// A statement the pinned state has already run without classifying runs the
// plan the state kept (see planTable) and is neither parsed nor planned
// again; otherwise it is prepared, and its plan kept if it classifies
// nothing.
func (db *DB) QueryContext(ctx context.Context, sql string, constraints core.Constraints) (*Result, error) {
	st := db.state.Load()
	key := planKey{sql: sql, constraints: constraints}
	plan := st.plans.get(key)
	reused := plan != nil
	if !reused {
		var err error
		if plan, err = st.prepare(sql, constraints); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, fresh, err := plan.execute(ctx)
	if err != nil {
		return nil, err
	}
	switch {
	case reused:
		db.reusedPlans.Add(1)
	case res.UDFCalls == 0:
		st.plans.put(key, plan)
	}
	if len(plan.content) > 0 {
		db.contentPlans.Add(1)
		// Materialization bookkeeping: every touched column feeds the usage
		// table the analyzer ranks by (even under MatOff — usage describes
		// the workload) and lookup hits/misses accumulate.
		for _, k := range plan.keys {
			db.mat.Touch(k)
		}
		db.mat.RecordLookup(int64(res.MatHits), int64(res.UDFCalls))
	}
	if len(fresh) > 0 {
		// Under durability the adopted labels are lazily journaled so a
		// restart restores the warm columns.
		db.publish(plan.st, fresh)
	}
	// Feed the observed pass rates back into the catalog (its own lock):
	// the adaptive half of cost-based planning.
	for _, ob := range res.Observed {
		db.catalog.Observe(ob.Category, ob.Frames, ob.Positives)
	}
	return res, nil
}

// Explain returns the plan description without executing it. Like Query it
// reads one pinned state and takes no lock. It always plans afresh, so its
// cost lines show the catalog and the record cache as they are now, and it
// neither reads nor fills the state's plan table.
func (db *DB) Explain(sql string, constraints core.Constraints) (string, error) {
	plan, err := db.prepare(sql, constraints)
	if err != nil {
		return "", err
	}
	return plan.describe(), nil
}
