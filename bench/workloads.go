package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tahoma/internal/server"
)

// serveOpts are the `tahoma serve` flags a workload sets; every other flag
// stays at its default. The live server's argument list and the traced
// pass's in-process replica are both derived from it, so they cannot drift.
type serveOpts struct {
	storeCorpus bool
	serveReps   bool
	matOff      bool
	noShareReps bool
	durable     bool // -wal-dir, -trigger, -checkpoint-every
}

// checkpointEvery is short enough that camera_ingest sees several checkpoint
// cycles inside one measured phase.
const checkpointEvery = time.Second

func (o serveOpts) args(fx *fixture, walDir string) []string {
	a := []string{"-corpus", fx.storeDir, "-zoo", strings.Join(fx.zooDirs, ",")}
	if o.storeCorpus {
		a = append(a, "-store-corpus")
	}
	if o.serveReps {
		a = append(a, "-serve-reps")
	}
	if o.matOff {
		a = append(a, "-materialize", "off")
	}
	if o.noShareReps {
		a = append(a, "-share-reps-mb", "0")
	}
	if o.durable {
		a = append(a, "-wal-dir", walDir, "-trigger", "-checkpoint-every", checkpointEvery.String())
	}
	return a
}

// workload is one traffic shape. The measured phase repeats trial until the
// run's time budget is spent; a trial is 25-80 ms of closed-loop ops.
type workload struct {
	name string
	// rows is the store's row count at start; distinct frames are rendered
	// from the seed and tiled to fill it; pool more are rendered for ingest.
	rows, distinct, pool int
	// window is the scans' rows per op; trainN the zoo's training split.
	window int
	trainN int
	// hostExp is how strongly this workload's time follows host speed as
	// the reference kernel sees it: when the kernel takes k times as long the
	// workload takes k^hostExp. Fitted once per workload over a dozen runs
	// while the sandbox's speed wandered between 1.0 and 1.8 (inference-bound
	// code follows the kernel closely, decode-, HTTP- and syscall-bound code
	// less), then frozen: changing it rescales the workload's committed
	// numbers.
	hostExp   float64
	preds     []string
	storeReps bool
	serve     serveOpts
	conns     int
	unit      string // what capacity_per_s counts
	newDriver func(s *session) driver
}

// scaled returns a copy of w with every row count divided by k, for the
// smoke test.
func (w *workload) scaled(k int) *workload {
	c := *w
	c.rows /= k
	c.distinct /= k
	c.pool /= k
	c.window /= k
	c.trainN /= k
	return &c
}

// driver is a workload's behaviour against a live session.
type driver interface {
	// queries lists every distinct SQL statement the workload sends, so the
	// oracle can answer each once before anything is timed.
	queries() []string
	// warm brings the server to its steady state; its cost is set-up.
	warm() error
	// trial runs one trial's ops and reports them.
	trial(i int) trialResult
	// finish runs after the measured phase: end-state checks.
	finish() error
}

const camBatch = 16

// Each workload is here because it loads layers the others do not; README.md
// has the predictions and what the first traced run showed.
var workloads = []*workload{
	{
		// The paper's ARCHIVE: the corpus (96 MB decoded) is larger than the
		// 64 MiB decode cache and the windows cycle, so the LRU never hits and
		// every frame pays load + decode + transform + infer.
		name: "archive_scan",
		rows: 8000, distinct: 2000, window: 2000, trainN: zooTrainN, hostExp: 0.8, preds: []string{"fence"},
		serve: serveOpts{storeCorpus: true, matOff: true, noShareReps: true},
		conns: 1, unit: "frames scanned",
		newDriver: func(s *session) driver { return &scanDriver{s: s, perTrial: 2} },
	},
	{
		// The paper's ONGOING: representations were materialized at ingest, so
		// transform is zero and the small reps all fit the cache. A decode or
		// transform gain must show on archive_scan and not here; the second
		// predicate adds planning and narrowing.
		name: "ongoing_scan",
		rows: 8000, distinct: 2000, window: 2000, trainN: zooTrainN, hostExp: 1.1, preds: []string{"fence", "wallet"}, storeReps: true,
		serve: serveOpts{storeCorpus: true, serveReps: true, matOff: true, noShareReps: true},
		conns: 1, unit: "frames scanned",
		newDriver: func(s *session) driver { return &scanDriver{s: s, perTrial: 3, negate: "wallet"} },
	},
	{
		// Zero inference: after warm-up every panel is bitmap-served, so only
		// server, vdb and matstore run, at a row count where their O(rows)
		// costs show and with two readers so lock hold shows.
		name: "dashboard_repeat",
		rows: 32000, distinct: 2000, trainN: zooTrainN, hostExp: 0.7, preds: []string{"fence", "wallet"},
		serve: serveOpts{storeCorpus: true},
		conns: 2, unit: "queries",
		newDriver: func(s *session) driver { return newDashDriver(s) },
	},
	{
		// The paper's CAMERA, writes beside reads: the write path (decode,
		// trigger stream, merge, wal, checkpoints) and whether it starves the
		// standing read.
		name: "camera_ingest",
		rows: 2000, distinct: 2000, pool: 512, trainN: zooTrainN, hostExp: 0.8, preds: []string{"fence"},
		serve: serveOpts{storeCorpus: true, durable: true},
		conns: 2, unit: "frames acked",
		newDriver: func(s *session) driver { return newCameraDriver(s) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// trialResult is what one trial did. Latencies are raw milliseconds; the
// caller normalizes them with the trial's host-speed factor.
type trialResult struct {
	ops, reads []float64
	units      int
	attempted  int
	failed     int
	firstErr   string
	respBytes  int
	httpSelfMS float64 // Σ (round trip − the response's wall_ms), queries only
}

func (t *trialResult) fail(err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// warmErr reports a warm-up's first failure, if any.
func (t *trialResult) warmErr() error {
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.firstErr)
	}
	return nil
}

func (t *trialResult) add(o trialResult) {
	t.ops = append(t.ops, o.ops...)
	t.reads = append(t.reads, o.reads...)
	t.units += o.units
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
	t.respBytes += o.respBytes
	t.httpSelfMS += o.httpSelfMS
}

// queryResp is the part of server.QueryResponse the benchmark reads. Every
// benchmark query projects integers only.
type queryResp struct {
	Rows   [][]int64 `json:"rows"`
	Count  int       `json:"count"`
	WallMS float64   `json:"wall_ms"`
}

// queryBody is a POST /query body for sql.
func queryBody(sql string) []byte {
	b, _ := json.Marshal(server.QueryRequest{SQL: sql}) // a struct of strings cannot fail
	return b
}

// canon is the parity surface of a query answer: the count and every
// projected cell, in order.
func canon(count int, rows [][]int64) string {
	b := strconv.AppendInt(nil, int64(count), 10)
	for _, r := range rows {
		b = append(b, '|')
		for j, v := range r {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
	}
	return string(b)
}

// query sends one statement on conn and records it in t as a read if accept
// (nil: the oracle's one answer for sql) passes it. It returns the round trip
// in milliseconds and the response, nil when the read failed.
func (s *session) query(conn *http.Client, sql string, t *trialResult, accept func(*queryResp) error) (float64, *queryResp) {
	body := queryBody(sql)
	resp := &queryResp{}
	t0 := time.Now()
	n, err := postJSON(conn, s.srv.base+"/query", body, resp)
	ms := float64(time.Since(t0)) / 1e6
	t.attempted++
	t.respBytes += n
	// A set-up that is only timed, never measured against, has no oracle.
	if err == nil && s.oracle != nil {
		if accept != nil {
			err = accept(resp)
		} else if got, want := canon(resp.Count, resp.Rows), s.oracle[sql]; got != want {
			err = fmt.Errorf("answered %.80s, oracle says %.80s", got, want)
		}
	}
	if err != nil {
		t.fail(fmt.Errorf("%s: %w", sql, err))
		return ms, nil
	}
	t.reads = append(t.reads, ms)
	t.httpSelfMS += ms - resp.WallMS
	return ms, resp
}

// scanDriver is archive_scan and ongoing_scan: one connection cycling
// through the corpus in window-row windows, so an LRU smaller than the
// corpus never hits.
type scanDriver struct {
	s        *session
	perTrial int
	negate   string // second predicate, applied negated
	next     int
}

func (d *scanDriver) sql(window int) string {
	wl := d.s.r.wl
	lo := window * wl.window
	q := fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND ts < %d AND contains_object('%s')",
		lo, lo+wl.window, wl.preds[0])
	if d.negate != "" {
		q += fmt.Sprintf(" AND NOT contains_object('%s')", d.negate)
	}
	return q
}

func (d *scanDriver) windows() int { return d.s.r.wl.rows / d.s.r.wl.window }

func (d *scanDriver) queries() []string {
	var qs []string
	for w := 0; w < d.windows(); w++ {
		qs = append(qs, d.sql(w))
	}
	return qs
}

func (d *scanDriver) op(t *trialResult) {
	ms, resp := d.s.query(d.s.conns[0], d.sql(d.next%d.windows()), t, nil)
	d.next++
	if resp != nil {
		t.ops = append(t.ops, ms)
		t.units += d.s.r.wl.window
	}
}

// warm scans the corpus once: the decode cache fills to its budget and every
// pool and lazily built structure exists before the clock starts.
func (d *scanDriver) warm() error {
	var t trialResult
	for w := 0; w < d.windows(); w++ {
		d.op(&t)
	}
	return t.warmErr()
}

func (d *scanDriver) trial(int) trialResult {
	var t trialResult
	for k := 0; k < d.perTrial; k++ {
		d.op(&t)
	}
	return t
}

func (d *scanDriver) finish() error { return nil }

// dashDriver is dashboard_repeat: each connection refreshes a four-panel
// dashboard back to back; every panel is answered from the label bitmaps.
type dashDriver struct {
	s        *session
	variants [][4]string
}

const (
	dashVariants  = 16
	dashRefreshes = 10 // per connection per trial
)

func newDashDriver(s *session) *dashDriver {
	d := &dashDriver{s: s}
	rng := rand.New(rand.NewSource(s.r.seed))
	rows := s.r.wl.rows
	// One panel counts over an eighth of the corpus, one lists a 64th.
	countWin, selectWin := rows/8, rows/64
	for v := 0; v < dashVariants; v++ {
		a := rng.Intn(rows - countWin)
		b := rng.Intn(rows - selectWin)
		d.variants = append(d.variants, [4]string{
			"SELECT COUNT(*) FROM images WHERE contains_object('fence')",
			"SELECT COUNT(*) FROM images WHERE contains_object('fence') AND NOT contains_object('wallet')",
			fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND ts < %d AND contains_object('fence')", a, a+countWin),
			fmt.Sprintf("SELECT id FROM images WHERE ts >= %d AND ts < %d AND contains_object('fence')", b, b+selectWin),
		})
	}
	return d
}

func (d *dashDriver) queries() []string {
	var qs []string
	for _, v := range d.variants {
		qs = append(qs, v[:]...)
	}
	return qs
}

func (d *dashDriver) refresh(conn *http.Client, variant int, t *trialResult) {
	var total float64
	ok := true
	for _, sql := range d.variants[variant%len(d.variants)] {
		ms, resp := d.s.query(conn, sql, t, nil)
		total += ms
		ok = ok && resp != nil
	}
	if ok {
		t.ops = append(t.ops, total)
		t.units += 4
	}
}

// warm runs every variant once: the first materializes both predicates over
// the whole corpus, the rest prove every window is bitmap-served.
func (d *dashDriver) warm() error {
	var t trialResult
	for v := range d.variants {
		d.refresh(d.s.conns[0], v, &t)
	}
	return t.warmErr()
}

func (d *dashDriver) trial(i int) trialResult {
	parts := make([]trialResult, len(d.s.conns))
	var wg sync.WaitGroup
	for c, conn := range d.s.conns {
		wg.Add(1)
		go func(c int, conn *http.Client) {
			defer wg.Done()
			for k := 0; k < dashRefreshes; k++ {
				d.refresh(conn, (i*dashRefreshes+k)*len(d.s.conns)+c, &parts[c])
			}
		}(c, conn)
	}
	wg.Wait()
	var t trialResult
	for _, p := range parts {
		t.add(p)
	}
	return t
}

func (d *dashDriver) finish() error { return nil }

// cameraDriver is camera_ingest: connection 0 posts fsync-acked batches of
// pool frames, connection 1 polls a standing count over the ingested range.
type cameraDriver struct {
	s        *session
	standing string
	// prefix[k] is the standing query's answer after k batches.
	prefix []int
	// sent/acked count batches started and acknowledged; a read that
	// overlaps writes may see any batch boundary between the two.
	sent, acked atomic.Int64
}

const camBatchesPerTrial = 10

func newCameraDriver(s *session) *cameraDriver {
	wl := s.r.wl
	return &cameraDriver{
		s:        s,
		standing: fmt.Sprintf("SELECT COUNT(*) FROM images WHERE ts >= %d AND contains_object('%s')", wl.rows, wl.preds[0]),
	}
}

// The standing query's answer changes as batches land, so read checks it
// against prefix, not the one-answer oracle map.
func (d *cameraDriver) queries() []string { return nil }

// batchBody is batch k's POST /ingest body: camBatch pool frames with
// consecutive ids continuing the corpus.
func (d *cameraDriver) batchBody(k int) []byte {
	wl := d.s.r.wl
	req := server.IngestRequest{}
	for j := 0; j < camBatch; j++ {
		id := int64(wl.rows + k*camBatch + j)
		req.Rows = append(req.Rows, server.IngestRow{
			ID: id, TS: id, Location: "gate", Camera: "cam-1",
			Image: d.s.fx.pool[(k*camBatch+j)%len(d.s.fx.pool)],
		})
	}
	b, _ := json.Marshal(req) // plain data cannot fail
	return b
}

func (d *cameraDriver) ingest(t *trialResult) {
	k := int(d.sent.Add(1)) - 1
	body := d.batchBody(k)
	var resp server.IngestResponse
	t0 := time.Now()
	_, err := postJSON(d.s.conns[0], d.s.srv.base+"/ingest", body, &resp)
	ms := float64(time.Since(t0)) / 1e6
	t.attempted++
	switch {
	case err != nil:
		t.fail(fmt.Errorf("ingest batch %d: %w", k, err))
	case resp.Rows != camBatch:
		t.fail(fmt.Errorf("ingest batch %d: acked %d rows, sent %d", k, resp.Rows, camBatch))
	default:
		d.acked.Add(1)
		t.ops = append(t.ops, ms)
		t.units += camBatch
	}
}

// expected returns the standing count after k batches, extending prefix from
// the oracle's per-pool-frame labels on demand.
func (d *cameraDriver) expected(k int) int {
	for len(d.prefix) <= k {
		n := len(d.prefix)
		if n == 0 {
			d.prefix = append(d.prefix, 0)
			continue
		}
		c := d.prefix[n-1]
		for j := 0; j < camBatch; j++ {
			if d.s.poolLabel[((n-1)*camBatch+j)%len(d.s.poolLabel)] {
				c++
			}
		}
		d.prefix = append(d.prefix, c)
	}
	return d.prefix[k]
}

func (d *cameraDriver) read(t *trialResult) {
	lo := int(d.acked.Load())
	d.s.query(d.s.conns[1], d.standing, t, func(resp *queryResp) error {
		hi := int(d.sent.Load())
		for k := lo; k <= hi; k++ {
			if resp.Count == d.expected(k) {
				return nil
			}
		}
		return fmt.Errorf("answered %d with %d..%d batches in, oracle says %d..%d",
			resp.Count, lo, hi, d.expected(lo), d.expected(hi))
	})
}

// warm ingests and reads once so the trigger column, the standing query's
// column and the journal exist.
func (d *cameraDriver) warm() error {
	t := d.trial(0)
	return t.warmErr()
}

func (d *cameraDriver) trial(int) trialResult {
	var w, r trialResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < camBatchesPerTrial; k++ {
			d.ingest(&w)
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < camBatchesPerTrial; k++ {
			d.read(&r)
		}
	}()
	wg.Wait()
	w.add(r)
	return w
}

// finish checks the end state, then the durability contract: kill -9,
// restart on the same directories, and every acked row is still counted.
func (d *cameraDriver) finish() error {
	s := d.s
	check := func(when string) error {
		var t trialResult
		d.read(&t)
		if t.failed > 0 {
			return fmt.Errorf("%s: %s", when, t.firstErr)
		}
		return nil
	}
	if err := check("after the measured phase"); err != nil {
		return err
	}
	s.srv.kill()
	t0 := time.Now()
	srv, err := startServer(s.r.bin, s.r.wl.serve.args(s.fx, s.walDir))
	if err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	s.srv = srv
	if err := srv.waitReady(s.conns[1]); err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	s.recoveryMS = float64(time.Since(t0)) / 1e6
	return check("after kill -9 and restart")
}
