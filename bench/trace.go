package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"tahoma/internal/bitset"
	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/pareto"
	"tahoma/internal/repstore"
	"tahoma/internal/server"
	"tahoma/internal/vdb"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

// The traced pass replays up to tracedOps trials. Each is sent to the live
// server once more (that latency against the untraced one is the tracing
// overhead) and then taken apart in-process: the same statement on an
// identically configured replica DB, the chosen cascades on the op's rows
// through the engine, and each leaf call (store read, decode, transform,
// inference) on the frames that reach it. Nothing under internal/ is edited:
// every span is taken around a public function from here.

// span is one timed call. Parent is the index of the span that logically
// causes it (-1 for an op's root): the nested calls are made one after
// another on the same rows, so a layer's self time is its span minus the
// spans that name it as parent.
type span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracer accumulates span time per name for the op being traced, then folds
// the op into normalized per-layer totals.
type tracer struct {
	log   *spanLog
	op    int
	cur   map[string]float64 // raw ms per span name, current op
	total map[string]float64 // normalized ms per span name, all ops
	count map[string]float64 // plain counters, all ops
}

func newTracer() *tracer {
	return &tracer{
		log:   &spanLog{t0: time.Now()},
		cur:   map[string]float64{},
		total: map[string]float64{},
		count: map[string]float64{},
	}
}

// span times fn under name and returns the span's index, to parent others.
func (t *tracer) span(name string, parent int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.log.spans = append(t.log.spans, span{
		Name: name, Parent: parent, OpID: t.op,
		StartUS: start.Sub(t.log.t0).Microseconds(), EndUS: end.Sub(t.log.t0).Microseconds(),
	})
	t.cur[name] += float64(end.Sub(start)) / 1e6
	return len(t.log.spans) - 1, err
}

// fold adds the spans taken since the last fold to the totals under their
// host-speed factor.
func (t *tracer) fold(factor float64) {
	for k, v := range t.cur {
		t.total[k] += v * factor
		delete(t.cur, k)
	}
}

// chooseCascade loads a zoo and resolves its cascade under cons outside the
// DB, the way vdb's planner resolves it.
func chooseCascade(zooDir string, cons core.Constraints) (*cascade.Runtime, error) {
	repo, err := zoo.Load(zooDir)
	if err != nil {
		return nil, err
	}
	sys, err := core.FromRepo(repo, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cm, err := costModel()
	if err != nil {
		return nil, err
	}
	results, err := sys.EvaluateCascades(sys.BuildOptions(2), cm)
	if err != nil {
		return nil, err
	}
	point, err := core.Select(pareto.Frontier(core.Points(results)), cons)
	if err != nil {
		return nil, err
	}
	return cascade.NewRuntime(results[point.Index].Spec, sys.Models, sys.Thresholds)
}

// cachedStore reads a store through the decode LRU the way vdb's
// store-backed corpus does: exec.Source for sources, exec.RepSource for
// pre-materialized representations.
type cachedStore struct {
	store *repstore.Store
	cache *repstore.Cache
	byID  map[string]xform.Transform
}

func newCachedStore(store *repstore.Store) (*cachedStore, error) {
	cache, err := repstore.NewCache(store, 64<<20) // serve's -cache-mb default
	if err != nil {
		return nil, err
	}
	c := &cachedStore{store: store, cache: cache, byID: map[string]xform.Transform{}}
	for _, t := range store.Transforms() {
		c.byID[t.ID()] = t
	}
	return c, nil
}

func (c *cachedStore) Len() int                        { return c.store.Count() }
func (c *cachedStore) Image(i int) (*img.Image, error) { return c.cache.Source(i) }
func (c *cachedStore) HasRep(id string) bool           { _, ok := c.byID[id]; return ok }
func (c *cachedStore) Rep(i int, id string) (*img.Image, error) {
	return c.cache.Rep(i, c.byID[id])
}

// leaves walks one cascade level by level over rows the way the engine's
// level-major loop does, on one goroutine, timing each leaf call: the read
// through the decode cache (and, separately, the decode inside a miss), the
// transform, and the batched scoring on the frames that reach each level. It
// returns the rows labelled positive. With reps the representations are read
// from the store instead of transformed. frames, when non-nil, supplies
// already decoded sources (the ingest path) and no store is read.
func (t *tracer) leaves(parent int, rt *cascade.Runtime, store *cachedStore, rows []int, frames []*img.Image, reps bool) ([]int, error) {
	type frame struct {
		row  int
		src  *img.Image
		slot map[string]*img.Image
	}
	live := make([]*frame, len(rows))
	for k, row := range rows {
		live[k] = &frame{row: row, slot: map[string]*img.Image{}}
		if frames != nil {
			live[k].src = frames[k]
		}
	}
	srcBytes := xform.Transform{Size: frameSide, Color: img.RGB}.StoredBytes()
	if !reps && frames == nil {
		var encoded [][]byte
		missed := store.cache.Stats().Misses
		id, err := t.span("repstore.load", parent, func() error {
			for _, f := range live {
				im, err := store.Image(f.row)
				if err != nil {
					return err
				}
				f.src = im
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		t.count["repstore.bytes_read"] += float64(store.cache.Stats().Misses-missed) * float64(srcBytes)
		for _, f := range live {
			var buf bytes.Buffer
			if err := img.Encode(&buf, f.src); err != nil {
				return nil, err
			}
			encoded = append(encoded, buf.Bytes())
		}
		if _, err := t.span("img.decode", id, func() error {
			for _, enc := range encoded {
				if _, err := img.Decode(bytes.NewReader(enc)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		t.count["img.decode_bytes"] += float64(len(live) * srcBytes)
	}

	var positives []int
	levels := rt.Levels
	scores := make([]float32, exec.DefaultBatch)
	batch := make([]*img.Image, 0, exec.DefaultBatch)
	for li, lv := range levels {
		if len(live) == 0 {
			break
		}
		tr := lv.Model.Xform
		id := tr.ID()
		var need []*frame
		for _, f := range live {
			if f.slot[id] == nil {
				need = append(need, f)
			}
		}
		if len(need) > 0 && reps {
			missed := store.cache.Stats().Misses
			if _, err := t.span("repstore.load", parent, func() error {
				for _, f := range need {
					im, err := store.Rep(f.row, id)
					if err != nil {
						return err
					}
					f.slot[id] = im
				}
				return nil
			}); err != nil {
				return nil, err
			}
			t.count["repstore.bytes_read"] += float64(store.cache.Stats().Misses-missed) * float64(tr.StoredBytes())
		} else if len(need) > 0 {
			if _, err := t.span("xform.transform", parent, func() error {
				var proj *img.Image
				for _, f := range need {
					f.slot[id], proj = tr.ApplyInto(nil, f.src, proj)
				}
				return nil
			}); err != nil {
				return nil, err
			}
		}
		quant := lv.Model.Quantized()
		var undecided []*frame
		for lo := 0; lo < len(live); lo += exec.DefaultBatch {
			hi := lo + exec.DefaultBatch
			if hi > len(live) {
				hi = len(live)
			}
			batch = batch[:0]
			for _, f := range live[lo:hi] {
				batch = append(batch, f.slot[id])
			}
			out := scores[:len(batch)]
			if _, err := t.span("model.infer", parent, func() error {
				if quant {
					return lv.Model.ScoreBatchQuantInto(batch, out)
				}
				return lv.Model.ScoreBatchInto(batch, out)
			}); err != nil {
				return nil, err
			}
			for k, f := range live[lo:hi] {
				decided, positive := lv.Thresholds.Decide(out[k])
				if lv.Last || li == len(levels)-1 {
					decided, positive = true, out[k] >= 0.5
				}
				switch {
				case !decided:
					undecided = append(undecided, f)
				case positive:
					positives = append(positives, f.row)
				}
			}
		}
		t.count["model.macs"] += float64(len(live)) * float64(lv.Model.MACs())
		live = undecided
	}
	return positives, nil
}

// engineRun times one engine run of c over rows at the given worker count
// (0: the default, every CPU).
func (t *tracer) engineRun(name string, parent int, rt *cascade.Runtime, src exec.Source, rows []int, opts exec.Options) error {
	eng, err := rt.Engine()
	if err != nil {
		return err
	}
	_, err = t.span(name, parent, func() error {
		_, err := eng.RunContext(context.Background(), src, rows, opts)
		return err
	})
	return err
}

// timeStatement runs sql on the replica: the whole query, and parse and
// explain on their own. It returns the query span's index.
func (t *tracer) timeStatement(db *vdb.DB, sql string) (int, error) {
	var res *vdb.Result
	id, err := t.span("vdb.query", -1, func() (err error) {
		res, err = db.QueryContext(context.Background(), sql, servingConstraints())
		return err
	})
	if err != nil {
		return 0, err
	}
	if _, err := t.span("vdb.parse", id, func() error { _, err := vdb.Parse(sql); return err }); err != nil {
		return 0, err
	}
	if _, err := t.span("vdb.explain", id, func() error { _, err := db.Explain(sql, servingConstraints()); return err }); err != nil {
		return 0, err
	}
	t.count["vdb.rows_examined"] += float64(db.Count())
	n := res.Count
	if n < 1 {
		n = 1
	}
	t.count["vdb.results"] += float64(n)
	return id, nil
}

// handle sends one request through the server package's handler in-process.
func (t *tracer) handle(h http.Handler, parent int, path string, body []byte) error {
	_, err := t.span("server.handle", parent, func() error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: HTTP %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	})
	return err
}

// bitmapWork times what a bitmap-served query does per content condition
// against a materialized column of n rows: the snapshot's private copy, the
// coverage check, the narrowing AND and the survivor extraction.
func (t *tracer) bitmapWork(parent, n, conds int) error {
	col := matstore.NewColumn()
	col.Grow(n)
	for i := 0; i < n; i++ {
		col.SetLabel(i, i%2 == 0)
	}
	_, err := t.span("matstore.bitmap", parent, func() error {
		for c := 0; c < conds; c++ {
			priv := col.CopyN(n)
			lv := bitset.New(n)
			lv.SetAll()
			if !priv.Covers(lv) {
				return fmt.Errorf("bitmap probe column does not cover its rows")
			}
			priv.Narrow(lv, false)
			_ = lv.AppendMembers(nil)
		}
		return nil
	})
	return err
}

// tracedPass replays traced ops and assembles every per-layer metric.
func (s *session) tracedPass(ph *phase, sm summary, stages []stageSpan, budget float64) ([]metric, error) {
	r, wl := s.r, s.r.wl
	t := newTracer()
	cal := r.cal

	// The replica opens its own copy of the store as it was at set-up: the
	// live server owns (and, on camera_ingest, has grown) the original.
	repDir := filepath.Join(s.dir, "replica")
	if err := ingestReplicaStore(s, repDir); err != nil {
		return nil, err
	}
	db, store, err := openDB(s.fx.zooDirs, repDir, wl.serve)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if !wl.serve.noShareReps {
		rc, err := vdb.NewSharedRepCache(64 << 20)
		if err != nil {
			return nil, err
		}
		db.SetRepCache(rc)
	}
	handler := server.New(db, server.Options{}).Handler()

	var liveMS []float64
	var tp tracedWorkload
	switch wl.name {
	case "dashboard_repeat":
		tp = &tracedDash{s: s, t: t, db: db, h: handler, d: s.drv.(*dashDriver)}
	case "camera_ingest":
		tp, err = newTracedCamera(s, t, db, handler)
	default:
		tp = &tracedScan{s: s, t: t, db: db, h: handler, raw: store, d: s.drv.(*scanDriver)}
	}
	if err != nil {
		return nil, err
	}
	if err := tp.prepare(); err != nil {
		return nil, err
	}
	start := time.Now()
	a := cal.sample()
	for i := 0; i < tracedOps && time.Since(start).Seconds() < budget; i++ {
		tr := s.drv.trial(len(ph.trials) + i)
		if tr.failed > 0 {
			return nil, fmt.Errorf("traced op %d: %s", i, tr.firstErr)
		}
		if err := tp.op(i); err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		b := cal.sample()
		f := cal.factor(a, b, 0, wl.hostExp)
		for _, ms := range tr.ops {
			liveMS = append(liveMS, ms*f)
		}
		t.fold(f)
		t.op++
		a = b
	}
	if err := tp.finish(); err != nil {
		return nil, err
	}
	t.fold(cal.factor(a, a, 2, wl.hostExp))
	if r.spans != nil {
		*r.spans = *t.log
	}

	ops := float64(t.op * tp.opsPerTrace())
	per := func(name string) float64 { return t.total[name] / ops }
	cnt := func(name string) float64 { return t.count[name] / ops }
	after := ph.after
	liveOps := float64(sm.nOps)
	delta := func(f func(*server.StatsResponse) int64) float64 { return float64(f(after) - f(ph.before)) }
	share := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	storeCache := func(f func(*server.CacheStats) int64) func(*server.StatsResponse) int64 {
		return func(st *server.StatsResponse) int64 {
			if st.StoreCache == nil {
				return 0
			}
			return f(st.StoreCache)
		}
	}
	var httpSelf, queries, respBytes float64
	for i, tr := range ph.trials {
		httpSelf += tr.httpSelfMS * ph.factor[i]
		queries += float64(len(tr.reads))
		respBytes += float64(tr.respBytes)
	}
	queriesPerOp := queries / liveOps
	if wl.name == "camera_ingest" {
		queriesPerOp = 1 // http_self is per standing read there
	}
	httpSelfPerOp := httpSelf / queries * queriesPerOp

	execRun, execRun1 := per("exec.run"), per("exec.run1")
	leafSum := per("repstore.load") + per("xform.transform") + per("model.infer")
	vdbSelf, layerSum := tp.breakdown(per, httpSelfPerOp)
	quantScored := delta(func(st *server.StatsResponse) int64 { return st.Quantization.QuantScored })
	quantFallbacks := delta(func(st *server.StatsResponse) int64 { return st.Quantization.QuantFallbacks })
	scoredMACs := cnt("model.macs")

	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	add("server.http_self_ms", httpSelfPerOp, "ms")
	add("server.handle_ms", per("server.handle"), "ms")
	add("server.resp_bytes_per_op", respBytes/liveOps, "B")
	add("server.rejected", delta(func(st *server.StatsResponse) int64 { return st.Rejected }), "count")
	add("vdb.query_ms", per("vdb.query"), "ms")
	add("vdb.self_ms", vdbSelf, "ms")
	add("vdb.parse_ms", per("vdb.parse"), "ms")
	add("vdb.explain_ms", per("vdb.explain"), "ms")
	add("vdb.rows_examined_per_result", ratio(t.count["vdb.rows_examined"], t.count["vdb.results"]), "count")
	add("vdb.append_ms", per("vdb.append"), "ms")
	add("vdb.checkpoint_ms", t.total["vdb.checkpoint"], "ms")
	add("vdb.checkpoints", delta(func(st *server.StatsResponse) int64 { return st.Durability.Checkpoints }), "count")
	add("planner.sequential_plans", delta(func(st *server.StatsResponse) int64 { return st.Planner.SequentialPlans }), "count")
	add("planner.fused_plans", delta(func(st *server.StatsResponse) int64 { return st.Planner.FusedPlans }), "count")
	add("exec.run_ms", execRun, "ms")
	add("exec.self_ms", execRun1-leafSum, "ms")
	add("exec.parallel_efficiency", ratio(execRun1, float64(len(cal.kernels))*execRun), "ratio")
	add("exec.udf_calls_per_op", delta(func(st *server.StatsResponse) int64 { return st.UDFCalls })/liveOps, "count")
	add("exec.quant_scored_per_op", quantScored/liveOps, "count")
	add("exec.quant_fallback_share", share(quantFallbacks, quantScored), "ratio")
	add("model.infer_ms", per("model.infer"), "ms")
	add("model.macs_per_op", scoredMACs, "count")
	add("model.infer_ns_per_mac", ratio(per("model.infer")*1e6, scoredMACs), "ns")
	add("xform.transform_ms", per("xform.transform"), "ms")
	add("xform.reps_materialized_per_op", delta(func(st *server.StatsResponse) int64 { return st.RepsMaterialized })/liveOps, "count")
	add("img.decode_ms", per("img.decode"), "ms")
	add("img.decode_mb_per_s", ratio(cnt("img.decode_bytes")/1e6, per("img.decode")/1e3), "MB/s")
	add("repstore.load_ms", per("repstore.load"), "ms")
	add("repstore.append_ms", per("repstore.append"), "ms")
	add("repstore.bytes_read_per_op", cnt("repstore.bytes_read"), "B")
	add("repstore.cache_hit_share", share(
		delta(storeCache(func(c *server.CacheStats) int64 { return c.Hits })),
		delta(storeCache(func(c *server.CacheStats) int64 { return c.Misses }))), "ratio")
	add("repstore.cache_evicted_mb", delta(storeCache(func(c *server.CacheStats) int64 { return c.EvictedBytes }))/(1<<20), "MB")
	add("repstore.rep_hits_per_op", delta(func(st *server.StatsResponse) int64 { return st.RepHits })/liveOps, "count")
	add("matstore.bitmap_ms", per("matstore.bitmap"), "ms")
	add("matstore.merge_ms", per("matstore.merge"), "ms")
	add("matstore.hit_share", share(
		delta(func(st *server.StatsResponse) int64 { return st.Materialization.Hits }),
		delta(func(st *server.StatsResponse) int64 { return st.Materialization.Misses })), "ratio")
	add("matstore.bytes", float64(after.Materialization.Bytes), "B")
	add("wal.commit_ms", per("wal.commit"), "ms")
	add("wal.records_per_batch", delta(func(st *server.StatsResponse) int64 { return st.Durability.WALRecords })/liveOps, "count")
	add("wal.bytes_per_user_byte", ratio(t.count["wal.bytes"], t.count["wal.user_bytes"]), "ratio")
	for _, st := range stages {
		add(st.name, st.norm, "s")
	}
	add("harness.rss_hwm_mb", ph.hwmMB, "MB")
	add("harness.host_speed", ph.hostSpeed, "ratio")
	add("harness.raw_op_p50_ms", median(sm.rawOps), "ms")
	add("harness.raw_capacity_per_s", float64(sm.units)/sm.rawS, "1/s")
	add("harness.cal_overhead_share", ph.calBusy/ph.wall, "ratio")
	add("harness.untraced_op_p50_ms", median(sm.ops), "ms")
	add("harness.trace_overhead_share", median(liveMS)/median(sm.ops)-1, "ratio")
	add("harness.layer_sum_ms", layerSum, "ms")
	add("harness.traced_ops", ops, "count")
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ingestReplicaStore rebuilds the set-up-time store under dir from the
// seeded corpus (the original may have grown since).
func ingestReplicaStore(s *session, dir string) error {
	corpus, _, err := generateCorpus(s.r.wl, s.r.seed)
	if err != nil {
		return err
	}
	return ingestStore(dir, corpus, s.r.wl.rows, s.r.wl.storeReps)
}

// tracedWorkload is a workload's half of the traced pass.
type tracedWorkload interface {
	prepare() error
	// op takes traced trial i apart in-process.
	op(i int) error
	finish() error
	// opsPerTrace is how many workload ops one traced trial holds.
	opsPerTrace() int
	// breakdown derives, from per-op span times and the live ops' HTTP self
	// time, vdb's self time and the sum of the layers that block the op.
	breakdown(per func(string) float64, httpSelf float64) (vdbSelf, layerSum float64)
}

// tracedScan takes a scan op apart: statement, engine, leaves.
type tracedScan struct {
	s     *session
	t     *tracer
	db    *vdb.DB
	h     http.Handler
	raw   *repstore.Store
	warm  *cachedStore       // ongoing_scan's decode cache, kept across ops
	picks []*cascade.Runtime // per predicate, in statement order
	d     *scanDriver
	next  int
}

// store returns the decode cache a timed call reads through. On the live
// server archive_scan's window has always been evicted by the time it comes
// round again, so each call there starts cold; ongoing_scan's small
// representations all fit and stay.
func (p *tracedScan) store() (*cachedStore, error) {
	if p.s.r.wl.serve.serveReps {
		return p.warm, nil
	}
	return newCachedStore(p.raw)
}

func (p *tracedScan) prepare() (err error) {
	for _, zd := range p.s.fx.zooDirs {
		rt, err := chooseCascade(zd, servingConstraints())
		if err != nil {
			return err
		}
		p.picks = append(p.picks, rt)
	}
	p.warm, err = newCachedStore(p.raw)
	return err
}

func (p *tracedScan) finish() error    { return nil }
func (p *tracedScan) opsPerTrace() int { return p.d.perTrial }

// A scan op is its HTTP self time plus the statement, which contains the
// engine run.
func (p *tracedScan) breakdown(per func(string) float64, httpSelf float64) (float64, float64) {
	return per("vdb.query") - per("exec.run"), httpSelf + per("vdb.query")
}

func (p *tracedScan) op(int) error {
	wl := p.s.r.wl
	for k := 0; k < p.d.perTrial; k++ {
		w := p.next % p.d.windows()
		p.next++
		sql := p.d.sql(w)
		qid, err := p.t.timeStatement(p.db, sql)
		if err != nil {
			return err
		}
		// The handler gets the next window of the cycle, as the live server's
		// next request would: the replica's LRU still holds the one just
		// queried, which the live server's never does.
		if err := p.t.handle(p.h, qid, "/query", queryBody(p.d.sql(p.next%p.d.windows()))); err != nil {
			return err
		}
		p.next++
		rows := make([]int, wl.window)
		for i := range rows {
			rows[i] = w*wl.window + i
		}
		// run times one call of f against its own view of the decode cache.
		run := func(workers int, f func(*cachedStore, exec.Options) error) error {
			cs, err := p.store()
			if err != nil {
				return err
			}
			opts := exec.Options{Quantize: exec.QuantAuto, Workers: workers}
			if wl.serve.serveReps {
				opts.RepSource = cs
			}
			return f(cs, opts)
		}
		// Sequential narrowing, as the planner runs these statements: each
		// predicate sees the survivors of the one before (the second one is
		// negated, so its survivors are the rows it labels negative — the
		// engine work is the same either way).
		for _, c := range p.picks {
			if err := run(0, func(cs *cachedStore, o exec.Options) error {
				return p.t.engineRun("exec.run", qid, c, cs, rows, o)
			}); err != nil {
				return err
			}
			if err := run(1, func(cs *cachedStore, o exec.Options) error {
				return p.t.engineRun("exec.run1", qid, c, cs, rows, o)
			}); err != nil {
				return err
			}
			if err := run(1, func(cs *cachedStore, _ exec.Options) (err error) {
				rows, err = p.t.leaves(qid, c, cs, rows, nil, wl.serve.serveReps)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// tracedDash takes a dashboard refresh apart: four statements on the
// replica, the same four through the server's handler, and the bitmap work.
type tracedDash struct {
	s  *session
	t  *tracer
	db *vdb.DB
	h  http.Handler
	d  *dashDriver
}

// prepare materializes both predicates on the replica, as warm-up did live.
func (p *tracedDash) prepare() error {
	for _, v := range p.d.variants {
		for _, sql := range v {
			if _, err := p.db.Query(sql, servingConstraints()); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *tracedDash) finish() error    { return nil }
func (p *tracedDash) opsPerTrace() int { return dashRefreshes * len(p.s.conns) }

func (p *tracedDash) breakdown(per func(string) float64, httpSelf float64) (float64, float64) {
	return per("vdb.query"), httpSelf + per("vdb.query")
}

func (p *tracedDash) op(i int) error {
	n := p.opsPerTrace()
	for k := 0; k < n; k++ {
		for _, sql := range p.d.variants[(i*n+k)%len(p.d.variants)] {
			qid, err := p.t.timeStatement(p.db, sql)
			if err != nil {
				return err
			}
			if err := p.t.handle(p.h, qid, "/query", queryBody(sql)); err != nil {
				return err
			}
		}
		// Five content conditions across the four panels.
		if err := p.t.bitmapWork(-1, p.s.r.wl.rows, 5); err != nil {
			return err
		}
	}
	return nil
}

// tracedCamera takes an ingest batch apart on a durable replica: the batch
// through the handler, the same-sized next batch through DB.Append with its
// decode timed apart, the trigger cascade on the batch's frames, a label
// merge, a journal commit and a store append in scratch directories, and the
// standing read.
type tracedCamera struct {
	s       *session
	t       *tracer
	db      *vdb.DB
	h       http.Handler
	d       *cameraDriver
	trigger *cascade.Runtime
	log     *wal.Log
	scratch *repstore.Store
	next    int // next replica batch
}

func newTracedCamera(s *session, t *tracer, db *vdb.DB, h http.Handler) (*tracedCamera, error) {
	p := &tracedCamera{s: s, t: t, db: db, h: h, d: s.drv.(*cameraDriver)}
	var err error
	// The trigger policy's zero constraints select the most accurate cascade.
	if p.trigger, err = chooseCascade(s.fx.zooDirs[0], core.Constraints{}); err != nil {
		return nil, err
	}
	db.SetTriggerPolicy(vdb.TriggerPolicy{Enabled: true})
	if _, err := db.EnableDurability(vdb.DurabilityOptions{Dir: filepath.Join(s.dir, "replica-wal")}); err != nil {
		return nil, err
	}
	if p.log, _, err = wal.Open(filepath.Join(s.dir, "scratch-wal"), wal.Options{}); err != nil {
		return nil, err
	}
	if p.scratch, err = repstore.Create(filepath.Join(s.dir, "scratch-store"), frameSide, frameSide, nil); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *tracedCamera) prepare() error {
	// First append backfills the trigger column over the whole corpus; keep
	// that out of the traced ops, as warm-up keeps it out of the live ones.
	return p.appendBatch(-1, false)
}

func (p *tracedCamera) opsPerTrace() int { return camBatchesPerTrial }

// An ingest op is the handler (JSON, decode, admission, Append); the
// response carries no wall_ms, so its HTTP self time is not separable.
func (p *tracedCamera) breakdown(per func(string) float64, _ float64) (float64, float64) {
	below := per("exec.run") + per("repstore.append") + per("matstore.merge") + per("wal.commit")
	return per("vdb.append") - below, per("server.handle")
}

func (p *tracedCamera) decodeBatch(k int) ([]*img.Image, []vdb.Metadata, error) {
	wl := p.s.r.wl
	images := make([]*img.Image, camBatch)
	metas := make([]vdb.Metadata, camBatch)
	for j := range images {
		im, err := img.Decode(bytes.NewReader(p.s.fx.pool[(k*camBatch+j)%len(p.s.fx.pool)]))
		if err != nil {
			return nil, nil, err
		}
		id := int64(wl.rows + k*camBatch + j)
		images[j], metas[j] = im, vdb.Metadata{ID: id, TS: id, Location: "gate", Camera: "cam-1"}
	}
	return images, metas, nil
}

// appendBatch appends the replica's next batch through DB.Append, timing
// decode and append apart when traced.
func (p *tracedCamera) appendBatch(parent int, traced bool) error {
	k := p.next
	p.next++
	var images []*img.Image
	var metas []vdb.Metadata
	decode := func() (err error) { images, metas, err = p.decodeBatch(k); return err }
	app := func() error { _, err := p.db.Append(images, metas); return err }
	if !traced {
		if err := decode(); err != nil {
			return err
		}
		return app()
	}
	if _, err := p.t.span("img.decode", parent, decode); err != nil {
		return err
	}
	p.t.count["img.decode_bytes"] += float64(camBatch * images[0].StoredBytes())
	id, err := p.t.span("vdb.append", parent, app)
	if err != nil {
		return err
	}
	// What Append does below vdb, each on its own: the trigger cascade over
	// the batch's frames, the store append, the label merge, the commit.
	if _, err := p.t.span("exec.run", id, func() error {
		_, err := p.trigger.ClassifyBatchContext(context.Background(), images, exec.Options{})
		return err
	}); err != nil {
		return err
	}
	if _, err := p.t.span("exec.run1", id, func() error {
		_, err := p.trigger.ClassifyBatchContext(context.Background(), images, exec.Options{Workers: 1})
		return err
	}); err != nil {
		return err
	}
	rows := make([]int, len(images))
	if _, err := p.t.leaves(id, p.trigger, nil, rows, images, false); err != nil {
		return err
	}
	if _, err := p.t.span("repstore.append", id, func() error { return p.scratch.IngestAll(images) }); err != nil {
		return err
	}
	n := p.db.Count()
	shared, priv := matstore.NewColumn(), matstore.NewColumn()
	shared.Grow(n)
	priv.Grow(n)
	for i := n - camBatch; i < n; i++ {
		priv.SetLabel(i, i%2 == 0)
	}
	if _, err := p.t.span("matstore.merge", id, func() error {
		shared.MergeDelta(priv, func(int, bool) {})
		return nil
	}); err != nil {
		return err
	}
	// An append record carries the base row and, per row, id, ts and the two
	// strings: about 48 bytes a row at these names.
	rec := make([]byte, 16+48*camBatch)
	_, err = p.t.span("wal.commit", id, func() error { _, err := p.log.Commit(1, rec); return err })
	return err
}

// handledBatch sends the replica's next batch through the server handler:
// JSON and base64 decode, image decode, admission, Append, response.
func (p *tracedCamera) handledBatch() error {
	k := p.next
	p.next++
	walBefore := p.db.DurabilityStats().WALBytes
	if err := p.t.handle(p.h, -1, "/ingest", p.d.batchBody(k)); err != nil {
		return err
	}
	p.t.count["wal.bytes"] += float64(p.db.DurabilityStats().WALBytes - walBefore)
	for j := 0; j < camBatch; j++ {
		p.t.count["wal.user_bytes"] += float64(len(p.s.fx.pool[(k*camBatch+j)%len(p.s.fx.pool)]))
	}
	return nil
}

// op traces each of the trial's batches twice over (once through the
// handler, once through Append taken apart) and the standing read once.
func (p *tracedCamera) op(int) error {
	for k := 0; k < camBatchesPerTrial; k++ {
		if err := p.handledBatch(); err != nil {
			return err
		}
		if err := p.appendBatch(-1, true); err != nil {
			return err
		}
		if _, err := p.t.timeStatement(p.db, p.d.standing); err != nil {
			return err
		}
	}
	return nil
}

func (p *tracedCamera) finish() error {
	_, err := p.t.span("vdb.checkpoint", -1, p.db.Checkpoint)
	_ = p.log.Close()     // scratch journal
	_ = p.scratch.Close() // scratch store
	if cerr := p.db.CloseDurability(); err == nil {
		err = cerr
	}
	return err
}
