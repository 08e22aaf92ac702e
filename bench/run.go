package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/server"
	"tahoma/internal/vdb"
	"tahoma/internal/zoo"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// End-to-end metrics, in report order. Every workload emits every one.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"server_cpu_ms_per_op", "ms"},
	{"rss_mb", "MB"},
}

// setupRepeats is how many times a run sets up; setup_s is the median, and
// the last set-up is the one measured against.
const setupRepeats = 3

// tracedOps bounds the traced pass (its time budget usually ends it first).
const tracedOps = 40

// calPad widens the window of calibration samples a trial is normalized by:
// the two that bracket it plus calPad on each side, about a second of run.
// Host-speed shifts last tens of seconds, and the median of 16 samples is
// steady to about a percent where the median of 2 is not.
const calPad = 7

// hardCapFactor bounds the measured phase's wall time at this multiple of
// the requested seconds, however slow the host gets.
const hardCapFactor = 2.5

// stageSpan is one timed set-up stage.
type stageSpan struct {
	name string
	raw  float64 // seconds
	norm float64 // seconds on the reference host
}

// run is one benchmark run: a workload, a seed, and the accounting.
type run struct {
	wl      *workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // tahoma binary
	tmpRoot string // parent of the run's scratch directory
	setups  int    // 0: setupRepeats
	cal     *calibrator
	stages  []stageSpan
	logf    func(format string, args ...any)
	spans   *spanLog
}

// stage times fn as the named set-up stage, bracketed by two calibration
// samples taken while nothing else runs.
func (r *run) stage(name string, fn func() error) error {
	a := r.cal.sample()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	b := r.cal.sample()
	r.stages = append(r.stages, stageSpan{name: name, raw: d, norm: d * r.cal.factor(a, b, 0, 1)})
	return err
}

// session is a set-up world: fixture, oracle, live server, connections.
type session struct {
	r      *run
	dir    string
	fx     *fixture
	walDir string
	srv    *serverProc
	conns  []*http.Client
	drv    driver
	// oracle maps each distinct statement to its canonical answer;
	// poolLabel is the standing predicate's label per pool frame.
	oracle    map[string]string
	poolLabel []bool
	// recoveryMS is camera_ingest's restart → ready time after kill -9.
	recoveryMS float64
}

func (s *session) close() {
	s.srv.kill()
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	_ = os.RemoveAll(s.dir) // scratch; the parent is removed at exit too
}

// installPredicates loads each zoo the way `tahoma serve` does and installs
// its predicate.
func installPredicates(db *vdb.DB, zooDirs []string) error {
	for _, zd := range zooDirs {
		repo, err := zoo.Load(zd)
		if err != nil {
			return err
		}
		sys, err := core.FromRepo(repo, core.DefaultConfig())
		if err != nil {
			return err
		}
		category := strings.TrimSuffix(strings.TrimPrefix(sys.Predicate, "contains_object("), ")")
		if err := db.InstallPredicate(category, sys, 2); err != nil {
			return err
		}
	}
	return nil
}

// costModel is serve's default: the analytic camera scenario.
func costModel() (scenario.CostModel, error) {
	return scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
}

func newDB() (*vdb.DB, error) {
	cm, err := costModel()
	if err != nil {
		return nil, err
	}
	return vdb.New(cm), nil
}

// openDB opens a vdb.DB over a store directory the way `tahoma serve` does
// with the flags in o; everything o leaves unset stays at the DB's default,
// as serve's flag defaults do. The caller closes the store.
func openDB(zooDirs []string, storeDir string, o serveOpts) (*vdb.DB, *repstore.Store, error) {
	db, err := newDB()
	if err != nil {
		return nil, nil, err
	}
	store, err := repstore.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	meta := make([]vdb.Metadata, store.Count())
	for i := range meta {
		meta[i] = vdb.Metadata{ID: int64(i), Location: "corpus", Camera: "cam-0", TS: int64(i)}
	}
	if o.matOff {
		db.SetMaterialization(vdb.MatOff)
	}
	err = db.LoadCorpusFromStore(store, 64<<20, meta)
	if err == nil {
		db.ServeReps(o.serveReps)
		err = installPredicates(db, zooDirs)
	}
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return db, store, nil
}

// servingConstraints are the server's default query constraints.
func servingConstraints() core.Constraints { return core.Constraints{MaxAccuracyLoss: 0.05} }

// asReference makes db the oracle's kind of DB: float32 scoring, one worker.
func asReference(db *vdb.DB) {
	db.SetQuantization(exec.QuantOff)
	db.SetExecOptions(exec.Options{Workers: 1})
}

func canonResult(res *vdb.Result) string {
	rows := make([][]int64, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = make([]int64, len(row))
		for j, v := range row {
			rows[i][j] = v.Int
		}
	}
	return canon(res.Count, rows)
}

// buildOracle answers every distinct statement once on an in-process
// reference: the same store and zoo, but float32 scoring on one worker, no
// HTTP, no concurrency. Materialization stays on (each row is classified
// once per predicate however many windows overlap it); labels do not depend
// on it.
func (s *session) buildOracle() error {
	wl := s.r.wl
	s.oracle = make(map[string]string)
	if qs := s.drv.queries(); len(qs) > 0 {
		o := wl.serve
		o.matOff = false
		db, store, err := openDB(s.fx.zooDirs, s.fx.storeDir, o)
		if err != nil {
			return err
		}
		defer store.Close()
		asReference(db)
		for _, sql := range qs {
			res, err := db.Query(sql, servingConstraints())
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", sql, err)
			}
			s.oracle[sql] = canonResult(res)
		}
	}
	if len(s.fx.pool) == 0 {
		return nil
	}
	// Pool labels come from an in-memory reference over the pool alone: it
	// must not open the store the server is about to own and grow.
	images := make([]*img.Image, len(s.fx.pool))
	metas := make([]vdb.Metadata, len(s.fx.pool))
	for i, enc := range s.fx.pool {
		im, err := img.Decode(bytes.NewReader(enc))
		if err != nil {
			return err
		}
		images[i] = im
		metas[i] = vdb.Metadata{ID: int64(i), TS: int64(i)}
	}
	mem, err := newDB()
	if err != nil {
		return err
	}
	asReference(mem)
	if err := mem.LoadCorpus(images, metas); err != nil {
		return err
	}
	if err := installPredicates(mem, s.fx.zooDirs); err != nil {
		return err
	}
	res, err := mem.Query(fmt.Sprintf("SELECT id FROM images WHERE contains_object('%s')", wl.preds[0]), servingConstraints())
	if err != nil {
		return fmt.Errorf("oracle: pool labels: %w", err)
	}
	s.poolLabel = make([]bool, len(s.fx.pool))
	for _, row := range res.Rows {
		s.poolLabel[row[0].Int] = true
	}
	return nil
}

// setUp builds one session, timing every stage into r.stages. Only the
// session that will be measured against needs an oracle.
func (r *run) setUp(measured bool) (*session, error) {
	dir, err := os.MkdirTemp(r.tmpRoot, "setup-")
	if err != nil {
		return nil, err
	}
	s := &session{r: r, dir: dir, walDir: filepath.Join(dir, "wal")}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if s.fx, err = buildFixture(r, dir); err != nil {
		return nil, err
	}
	s.drv = r.wl.newDriver(s)
	// The oracle is the benchmark's own work, not the system's set-up, and
	// must read the store before camera_ingest's server starts growing it.
	if measured {
		if err := s.buildOracle(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < r.wl.conns; i++ {
		s.conns = append(s.conns, newConn())
	}
	if err := r.stage("server.ready_s", func() error {
		if s.srv, err = startServer(r.bin, r.wl.serve.args(s.fx, s.walDir)); err != nil {
			return err
		}
		return s.srv.waitReady(s.conns[0])
	}); err != nil {
		return nil, err
	}
	if err := r.stage("harness.warm_s", s.drv.warm); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// phase is the measured phase's raw record.
type phase struct {
	trials    []trialResult
	rawS      []float64 // per trial, wall seconds
	factor    []float64 // per trial, host-speed factor
	cal0      int       // index of the sample before trial 0
	wall      float64   // whole phase, seconds, calibration included
	calBusy   float64   // seconds inside the calibrator
	cpuS      float64   // server CPU seconds over the phase
	rssMB     []float64 // server resident set after each trial
	hwmMB     float64   // its high-water mark at the end
	before    *server.StatsResponse
	after     *server.StatsResponse
	allFact   float64 // the whole phase's host-speed factor
	hostSpeed float64 // median kernel time over the phase ÷ refMS
	attempts  int
	failed    int
	firstErr  string
}

// measure runs trials until budget seconds of reference-host time have been
// measured (or the hard wall-clock cap is hit), calibrating between trials.
func (s *session) measure(budget float64) (*phase, error) {
	cal := s.r.cal
	ph := &phase{}
	var err error
	if ph.before, err = fetchStats(s.conns[0], s.srv.base); err != nil {
		return nil, err
	}
	cpu0, err := s.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	busy0 := cal.busy
	start := time.Now()
	ph.cal0 = cal.sample()
	var spent float64
	for i := 0; ; i++ {
		t0 := time.Now()
		tr := s.drv.trial(i)
		d := time.Since(t0).Seconds()
		at := cal.sample()
		ph.trials = append(ph.trials, tr)
		ph.rawS = append(ph.rawS, d)
		rss, _, err := s.srv.rssMB()
		if err != nil {
			return nil, err
		}
		ph.rssMB = append(ph.rssMB, rss)
		// Provisional factor from the samples so far; recomputed below once
		// the later neighbours exist.
		spent += d * cal.factor(at-1, at, calPad, s.r.wl.hostExp)
		if spent >= budget || time.Since(start).Seconds() > hardCapFactor*budget {
			break
		}
	}
	ph.wall = time.Since(start).Seconds()
	ph.calBusy = (cal.busy - busy0).Seconds()
	cpu1, err := s.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph.cpuS = cpu1 - cpu0
	if _, ph.hwmMB, err = s.srv.rssMB(); err != nil {
		return nil, err
	}
	if ph.after, err = fetchStats(s.conns[0], s.srv.base); err != nil {
		return nil, err
	}
	for i := range ph.trials {
		// Trial i ran between samples cal0+i and cal0+i+1.
		ph.factor = append(ph.factor, cal.factor(ph.cal0+i, ph.cal0+i+1, calPad, s.r.wl.hostExp))
		ph.attempts += ph.trials[i].attempted
		ph.failed += ph.trials[i].failed
		if ph.firstErr == "" {
			ph.firstErr = ph.trials[i].firstErr
		}
	}
	ph.allFact = cal.factor(ph.cal0, ph.cal0+len(ph.trials), 0, s.r.wl.hostExp)
	ph.hostSpeed = 1 / cal.factor(ph.cal0, ph.cal0+len(ph.trials), 0, 1)
	return ph, nil
}

// summary is a phase reduced to the numbers metrics are made of, raw and
// normalized.
type summary struct {
	ops, reads       []float64 // normalized ms
	rawOps, rawReads []float64
	units, nOps      int
	normS, rawS      float64 // Σ trial seconds
}

func (ph *phase) summarize() summary {
	var sm summary
	for i, tr := range ph.trials {
		f := ph.factor[i]
		for _, ms := range tr.ops {
			sm.ops = append(sm.ops, ms*f)
			sm.rawOps = append(sm.rawOps, ms)
		}
		for _, ms := range tr.reads {
			sm.reads = append(sm.reads, ms*f)
			sm.rawReads = append(sm.rawReads, ms)
		}
		sm.units += tr.units
		sm.normS += ph.rawS[i] * f
		sm.rawS += ph.rawS[i]
	}
	sm.nOps = len(sm.ops)
	return sm
}

// result is what one run reports.
type result struct {
	e2e, layers []metric
	raw         map[string]float64 // un-normalized twin of each e2e time metric
	attempted   int
	failed      int
	firstErr    string
	ops         int
}

// execute performs the whole run: set up several times, measure on the
// last, check, and (with trace) replay the traced pass.
func (r *run) execute() (*result, error) {
	r.cal = newCalibrator(runtime.GOMAXPROCS(0))
	var setupS, rawSetupS []float64
	var s *session
	var lastStages []stageSpan
	setups := r.setups
	if setups == 0 {
		setups = setupRepeats
	}
	for rep := 0; rep < setups; rep++ {
		if s != nil {
			s.close()
		}
		r.stages = nil
		var err error
		if s, err = r.setUp(rep == setups-1); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep+1, err)
		}
		var n, raw float64
		for _, st := range r.stages {
			n += st.norm
			raw += st.raw
		}
		setupS = append(setupS, n)
		rawSetupS = append(rawSetupS, raw)
		lastStages = r.stages
	}
	defer func() { s.close() }()

	budget := r.seconds
	if r.trace {
		// The traced pass takes the other half of the time.
		budget /= 2
	}
	ph, err := s.measure(budget)
	if err != nil {
		return nil, err
	}
	sm := ph.summarize()
	res := &result{raw: map[string]float64{}, attempted: ph.attempts, failed: ph.failed, firstErr: ph.firstErr, ops: sm.nOps}
	if sm.nOps == 0 {
		return res, fmt.Errorf("no op succeeded: %s", res.firstErr)
	}
	if r.trace {
		if res.layers, err = s.tracedPass(ph, sm, lastStages, budget); err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
	}
	// The end-state check may kill and restart the server, so it comes last.
	if err := s.drv.finish(); err != nil {
		res.failed++
		res.attempted++
		if res.firstErr == "" {
			res.firstErr = err.Error()
		}
	}
	if r.trace {
		at := r.cal.sample()
		res.layers = append(res.layers, metric{"vdb.recovery_ms", s.recoveryMS * r.cal.factor(at, at, 2, r.wl.hostExp), "ms"})
	}

	cpuPerOp := ph.cpuS * 1e3 / float64(sm.nOps)
	vals := map[string]float64{
		"setup_s":              median(setupS),
		"op_p50_ms":            median(sm.ops),
		"op_p90_ms":            quantile(sm.ops, 0.9),
		"read_p50_ms":          median(sm.reads),
		"capacity_per_s":       float64(sm.units) / sm.normS,
		"server_cpu_ms_per_op": cpuPerOp * ph.allFact,
		"rss_mb":               median(ph.rssMB),
	}
	res.raw["setup_s"] = median(rawSetupS)
	res.raw["op_p50_ms"] = median(sm.rawOps)
	res.raw["op_p90_ms"] = quantile(sm.rawOps, 0.9)
	res.raw["read_p50_ms"] = median(sm.rawReads)
	res.raw["capacity_per_s"] = float64(sm.units) / sm.rawS
	res.raw["server_cpu_ms_per_op"] = cpuPerOp
	for _, m := range endToEnd {
		res.e2e = append(res.e2e, metric{m.name, vals[m.name], m.unit})
	}
	r.logf("%s seed %d: %d ops in %d trials, %.2fs measured (%.2fs wall, host speed %.2f)",
		r.wl.name, r.seed, sm.nOps, len(ph.trials), sm.normS, ph.wall, ph.hostSpeed)
	return res, nil
}
