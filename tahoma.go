// Package tahoma is a from-scratch Go implementation of TAHOMA
// (Anderson, Cafarella, Ros, Wenisch: "Physical Representation-based
// Predicate Optimization for a Visual Analytics Database", ICDE 2019):
// an optimizer for the CNN-backed contains_object predicates of a visual
// analytics database.
//
// TAHOMA trains a grid of small specialized CNNs that varies both network
// architecture and the physical representation of the input image
// (resolution rungs × color variants), composes them into classifier
// cascades, and evaluates every cascade's accuracy and end-to-end throughput
// — including data loading and transformation costs — under the system's
// deployment scenario. Queries then pick from the Pareto-optimal cascades
// according to the user's accuracy/throughput constraints.
//
// This package is the public facade; the implementation lives in internal/
// (see DESIGN.md for the system inventory). The typical flow:
//
//	splits, _ := tahoma.GenerateCorpus("fence", tahoma.CorpusOptions{})
//	pred, _ := tahoma.InstallPredicate("fence", splits, tahoma.DefaultConfig(),
//	        tahoma.Camera, tahoma.DefaultCostParams())
//	clf, _ := pred.Choose(tahoma.Constraints{MaxAccuracyLoss: 0.05})
//	label, _ := clf.Classify(image)
package tahoma

import (
	"context"
	"fmt"

	"tahoma/internal/cascade"
	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/pareto"
	"tahoma/internal/scenario"
	"tahoma/internal/server"
	"tahoma/internal/synth"
	"tahoma/internal/vdb"
)

// Re-exported configuration and result types. These aliases are the public
// names; the internal packages stay implementation details.
type (
	// Config controls the model design space (architectures × input
	// transformations) and training effort.
	Config = core.Config
	// Constraints are the user's query-time accuracy/throughput bounds
	// (the paper's Uacc and Uthru).
	Constraints = core.Constraints
	// Scenario is a deployment scenario whose data-handling costs the
	// optimizer prices (INFER_ONLY, ARCHIVE, ONGOING, CAMERA).
	Scenario = scenario.Kind
	// CostParams are the constants of the analytic deployment cost model.
	CostParams = scenario.Params
	// Point is one cascade in the accuracy/throughput plane.
	Point = pareto.Point
	// Image is a planar float32 image in [0,1].
	Image = img.Image
	// Splits are the labeled train/config/eval datasets initialization
	// consumes.
	Splits = synth.Splits
	// ExecOptions size the batched execution engine: worker goroutines ×
	// frames per batch. The zero value means GOMAXPROCS workers and the
	// engine's default batch size.
	ExecOptions = exec.Options
	// ExecReport is one engine run's accounting: labels, levels run,
	// positives, representation work, per-batch stats and measured
	// throughput (comparable to the evaluator's analytic estimate).
	ExecReport = exec.Report

	// DB is the visual analytics database: a SQL-queryable images table
	// with installed contains_object predicates. Safe for concurrent use —
	// the substrate `tahoma serve` exposes over HTTP.
	DB = vdb.DB
	// Metadata is the relational half of one image row.
	Metadata = vdb.Metadata

	// Server is the concurrent HTTP query service over one open DB
	// (POST /query, GET /explain, GET /stats), with a bounded admission
	// pool. See cmd/tahoma's serve subcommand for the CLI front end.
	Server = server.Server
	// ServerOptions size the server's admission pool.
	ServerOptions = server.Options
	// Client talks to a running Server.
	Client = server.Client
	// ClientQueryOptions are a client request's cascade constraints.
	ClientQueryOptions = server.QueryOptions
)

// Deployment scenarios (Section VII-A of the paper).
const (
	InferOnly = scenario.InferOnly
	Archive   = scenario.Archive
	Ongoing   = scenario.Ongoing
	Camera    = scenario.Camera
)

// DefaultConfig returns the paper-shaped design space scaled to 64×64
// synthetic sources: 4 resolution rungs × 5 color variants × 8
// architectures plus a deep reference classifier.
func DefaultConfig() Config { return core.DefaultConfig() }

// TinyConfig returns a minimal design space that initializes in well under a
// second — useful for tests and demos.
func TinyConfig() Config { return core.TinyConfig() }

// DefaultCostParams returns analytic cost constants resembling an SSD-backed
// server with CPU inference.
func DefaultCostParams() CostParams { return scenario.DefaultParams() }

// CorpusOptions sizes a generated synthetic corpus.
type CorpusOptions struct {
	BaseSize int   // source resolution (default 64)
	TrainN   int   // training examples (default 200)
	ConfigN  int   // threshold-calibration examples (default 120)
	EvalN    int   // evaluation examples (default 240)
	Seed     int64 // content seed
	Augment  bool  // add left-right flipped training copies
}

// GenerateCorpus builds the labeled splits for one of the ten built-in
// categories, the Table II analogues ("fence", "cloak", ...); `tahoma help`
// lists them all. An unknown name is an error.
func GenerateCorpus(category string, opts CorpusOptions) (Splits, error) {
	cat, err := synth.CategoryByName(category)
	if err != nil {
		return Splits{}, err
	}
	if opts.BaseSize == 0 {
		opts.BaseSize = 64
	}
	if opts.TrainN == 0 {
		opts.TrainN = 200
	}
	if opts.ConfigN == 0 {
		opts.ConfigN = 120
	}
	if opts.EvalN == 0 {
		opts.EvalN = 240
	}
	return synth.GenerateBinary(cat, synth.Options{
		BaseSize: opts.BaseSize,
		TrainN:   opts.TrainN,
		ConfigN:  opts.ConfigN,
		EvalN:    opts.EvalN,
		Seed:     opts.Seed,
		Augment:  opts.Augment,
	})
}

// Predicate is an installed contains_object operator: an initialized TAHOMA
// system together with its evaluated cascade set and Pareto frontier under
// one deployment scenario.
type Predicate struct {
	Category string
	Scenario Scenario

	sys      *core.System
	results  []cascade.Result
	frontier []Point
}

// InstallPredicate runs full system initialization (train the design space,
// calibrate thresholds, score the evaluation set) and evaluates the cascade
// set under the scenario's analytic cost model.
func InstallPredicate(category string, splits Splits, cfg Config, sc Scenario, params CostParams) (*Predicate, error) {
	sys, err := core.Initialize("contains_object("+category+")", splits, cfg)
	if err != nil {
		return nil, err
	}
	return newPredicate(category, sys, sc, params)
}

func newPredicate(category string, sys *core.System, sc Scenario, params CostParams) (*Predicate, error) {
	cm, err := scenario.NewAnalytic(sc, params)
	if err != nil {
		return nil, err
	}
	results, err := sys.EvaluateCascades(sys.BuildOptions(2), cm)
	if err != nil {
		return nil, err
	}
	return &Predicate{
		Category: category,
		Scenario: sc,
		sys:      sys,
		results:  results,
		frontier: pareto.Frontier(core.Points(results)),
	}, nil
}

// Reprice re-evaluates the predicate's cascade set under a different
// deployment scenario without retraining anything — the cheap query-time
// operation the paper's Section V-D enables.
func (p *Predicate) Reprice(sc Scenario, params CostParams) (*Predicate, error) {
	return newPredicate(p.Category, p.sys, sc, params)
}

// Frontier returns the Pareto-optimal cascades (ascending throughput).
func (p *Predicate) Frontier() []Point {
	out := make([]Point, len(p.frontier))
	copy(out, p.frontier)
	return out
}

// CascadeCount returns the size of the evaluated cascade design space.
func (p *Predicate) CascadeCount() int { return len(p.results) }

// ResultAt returns cascade i's accuracy and throughput under this
// predicate's scenario. Cascade indices are stable across Reprice — the
// enumeration order is deterministic — so a point chosen under one scenario
// can be re-priced under another by index.
func (p *Predicate) ResultAt(i int) (accuracy, throughput float64, err error) {
	if i < 0 || i >= len(p.results) {
		return 0, 0, fmt.Errorf("tahoma: cascade index %d out of range [0,%d)", i, len(p.results))
	}
	return p.results[i].Accuracy, p.results[i].Throughput, nil
}

// ModelCount returns the number of trained basic models (plus the deep
// reference classifier).
func (p *Predicate) ModelCount() int { return len(p.sys.Models) }

// Describe renders the cascade behind a frontier point.
func (p *Predicate) Describe(pt Point) string {
	if pt.Index < 0 || pt.Index >= len(p.results) {
		return fmt.Sprintf("invalid point index %d", pt.Index)
	}
	return p.results[pt.Index].Spec.Describe(p.sys.Models)
}

// Classifier is a chosen, executable cascade.
type Classifier struct {
	Expected cascade.Result // evaluator's accuracy/throughput estimate
	Index    int            // the cascade's stable index in the design space
	rt       *cascade.Runtime
	desc     string
}

// Choose selects the Pareto-optimal cascade matching the constraints and
// materializes it for execution.
func (p *Predicate) Choose(c Constraints) (*Classifier, error) {
	pt, err := core.Select(p.frontier, c)
	if err != nil {
		return nil, err
	}
	res := p.results[pt.Index]
	rt, err := p.sys.Runtime(res.Spec)
	if err != nil {
		return nil, err
	}
	return &Classifier{Expected: res, Index: pt.Index, rt: rt, desc: res.Spec.Describe(p.sys.Models)}, nil
}

// Classify labels one full-size image. Like every input the engine reads, the
// image is first encoded to its stored TIMG record (samples quantized to 8
// bits), so a frame scores the same whether it is classified here, in a
// batch, or out of a database.
func (c *Classifier) Classify(im *Image) (bool, error) {
	label, _, err := c.rt.Classify(im)
	return label, err
}

// ClassifyBatch labels a batch of images through the execution engine with
// default options. Labels are bit-identical to per-image Classify calls.
func (c *Classifier) ClassifyBatch(ims []*Image) ([]bool, error) {
	rep, err := c.ClassifyBatchReport(ims, ExecOptions{})
	if err != nil {
		return nil, err
	}
	return rep.Labels, nil
}

// ClassifyBatchReport labels a batch of images under explicit engine
// options and returns the full execution report (labels included),
// including per-batch stats and the measured throughput to hold against
// Expected.Throughput.
func (c *Classifier) ClassifyBatchReport(ims []*Image, opts ExecOptions) (*ExecReport, error) {
	return c.rt.ClassifyBatchContext(context.Background(), ims, opts)
}

// String describes the cascade's levels.
func (c *Classifier) String() string { return c.desc }

// System exposes the underlying initialized system: the handle
// DB.InstallPredicate takes.
func (p *Predicate) System() *core.System { return p.sys }

// NewDB creates an empty visual analytics database priced under a deployment
// scenario. Load a corpus (DB.LoadCorpus), install predicates
// (DB.InstallPredicate with Predicate.System()), then Query — or hand it to
// NewServer to serve concurrent clients.
func NewDB(sc Scenario, params CostParams) (*DB, error) {
	cm, err := scenario.NewAnalytic(sc, params)
	if err != nil {
		return nil, err
	}
	return vdb.New(cm), nil
}

// NewServer wraps an open DB in the concurrent HTTP query service: a bounded
// query-worker pool admits clients, every query reads the DB's one pinned
// state, and /stats exposes latency and cache counters. Start it with
// Server.ListenAndServe or mount Server.Handler.
func NewServer(db *DB, opts ServerOptions) *Server { return server.New(db, opts) }

// NewClient builds a client for a running server's base URL, e.g.
// "http://127.0.0.1:8080", with the default timeouts and retry policy (2s
// connect / 30s request timeouts, 3 retries with backoff).
func NewClient(base string) *Client { return server.NewClient(base) }
