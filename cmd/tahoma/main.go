// Command tahoma is the CLI for the TAHOMA visual-analytics predicate
// optimizer. Subcommands mirror the system's lifecycle:
//
//	tahoma corpus   -category fence -dir ./corpus            generate + ingest a corpus
//	tahoma init     -category fence -zoo ./zoo/fence         train the design space, persist it
//	tahoma frontier -zoo ./zoo/fence -scenario camera        print the Pareto frontier
//	tahoma query    -zoo ./zoo/fence -corpus ./corpus -sql 'SELECT ...'
//	tahoma explain  -zoo ./zoo/fence -corpus ./corpus -sql 'SELECT ...'
//	tahoma serve    -zoo ./zoo/fence -corpus ./corpus -addr 127.0.0.1:8080
//
// serve runs the long-lived concurrent query service: POST /query (SQL in,
// rows out; ?ndjson=1 streams), GET /explain, GET /stats. A bounded
// admission pool (-max-concurrent, -max-queue, -queue-timeout) keeps N
// clients from oversubscribing the execution engine. Multiple -zoo
// directories (comma-separated) install one predicate each.
//
// query, explain and serve read the corpus one way: straight out of the
// representation store through a -cache-mb LRU of stored records (the one
// pixel cache, which a large label-materializing run reads through without
// filling); -serve-reps additionally loads pre-materialized
// representations from the store, skipping the source load and derivation
// for the transforms it covers — a pure cost choice, since a served
// representation is the record the engine would derive. Content predicates
// are ordered by the cost-based planner — rank = cost/(1-selectivity)
// against the adaptive selectivity catalog, discounted by what is resident
// (served representations, cached source records); labels do not depend on
// the order. Each query prints its classifier invocations, representation
// work (transformed vs served) and the record cache's hit rate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tahoma/internal/core"
	"tahoma/internal/exec"
	"tahoma/internal/img"
	"tahoma/internal/pareto"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/synth"
	"tahoma/internal/vdb"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tahoma: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "corpus":
		err = cmdCorpus(os.Args[2:])
	case "init":
		err = cmdInit(os.Args[2:])
	case "frontier":
		err = cmdFrontier(os.Args[2:])
	case "query", "explain":
		err = cmdQuery(os.Args[1], os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: tahoma <command> [flags]

commands:
  corpus    generate a synthetic labeled corpus and ingest it into a representation store
  init      train the model design space for a predicate and persist the model repository
  frontier  print the Pareto-optimal cascades for a persisted predicate under a scenario
  query     run a SQL query against a corpus using installed predicates
  explain   show the query plan without executing it
  serve     serve concurrent SQL queries over HTTP from one open database

categories: %s
`, strings.Join(synth.CategoryNames(), ", "))
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	category := fs.String("category", "fence", "target category")
	dir := fs.String("dir", "./corpus", "representation store directory")
	n := fs.Int("n", 120, "corpus size")
	size := fs.Int("size", 64, "source resolution")
	seed := fs.Int64("seed", 1, "content seed")
	fs.Parse(args)

	cat, err := synth.CategoryByName(*category)
	if err != nil {
		return err
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: *size, TrainN: *n, ConfigN: 2, EvalN: 2, Seed: *seed,
	})
	if err != nil {
		return err
	}
	transforms := xform.Grid([]int{*size / 8, *size / 4, *size / 2, *size}, xform.AllColors)
	store, err := repstore.Create(*dir, *size, *size, transforms)
	if err != nil {
		return err
	}
	defer store.Close()
	images := make([]*img.Image, 0, sp.Train.Len())
	positives := 0
	for _, e := range sp.Train.Examples {
		images = append(images, e.Image)
		if e.Label {
			positives++
		}
	}
	if err := store.IngestAll(images); err != nil {
		return err
	}
	fmt.Printf("ingested %d images (%d containing %s) into %s with %d representations each\n",
		len(images), positives, *category, *dir, len(transforms))
	return nil
}

func cmdInit(args []string) error {
	fs := flag.NewFlagSet("init", flag.ExitOnError)
	category := fs.String("category", "fence", "target category")
	zooDir := fs.String("zoo", "", "output model repository directory (required)")
	size := fs.Int("size", 64, "source resolution")
	trainN := fs.Int("train", 200, "training examples")
	configN := fs.Int("config", 120, "calibration examples")
	evalN := fs.Int("eval", 240, "evaluation examples")
	seed := fs.Int64("seed", 1, "seed")
	quick := fs.Bool("quick", false, "use the reduced design space")
	fs.Parse(args)
	if *zooDir == "" {
		return fmt.Errorf("init: -zoo is required")
	}

	cat, err := synth.CategoryByName(*category)
	if err != nil {
		return err
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: *size, TrainN: *trainN, ConfigN: *configN, EvalN: *evalN,
		Seed: *seed, Augment: true,
	})
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if *quick {
		cfg.Sizes = []int{*size / 4, *size / 2, *size}
		cfg.ConvWidths = []int{4}
	}
	cfg.DeepXform.Size = *size
	log.Printf("training design space for %s (%d train images)...", *category, sp.Train.Len())
	sys, err := core.Initialize("contains_object("+*category+")", sp, cfg)
	if err != nil {
		return err
	}
	if err := zoo.Save(*zooDir, sys.Repo()); err != nil {
		return err
	}
	fmt.Printf("initialized %d models for %s; repository saved to %s\n",
		len(sys.Models), *category, *zooDir)
	return nil
}

func loadSystem(zooDir string) (*core.System, error) {
	repo, err := zoo.Load(zooDir)
	if err != nil {
		return nil, err
	}
	return core.FromRepo(repo, core.DefaultConfig())
}

// installPredicate loads the predicate persisted in zooDir and installs it on
// db under its own category name, the text inside contains_object(...).
func installPredicate(db *vdb.DB, zooDir string) (string, error) {
	sys, err := loadSystem(zooDir)
	if err != nil {
		return "", err
	}
	category := strings.TrimSuffix(strings.TrimPrefix(sys.Predicate, "contains_object("), ")")
	return category, db.InstallPredicate(category, sys, 2)
}

// corpusFlags are the flags query, explain and serve share: the corpus store,
// the record cache it is read through, and how the DB over it executes.
type corpusFlags struct {
	dir, scenario, materialize string
	workers, cacheMB, matMB    int
	serveReps                  bool
}

func (f *corpusFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.dir, "corpus", "", "representation store directory (required)")
	fs.StringVar(&f.scenario, "scenario", "camera", "deployment scenario")
	fs.IntVar(&f.workers, "workers", 0, "classification worker goroutines per query (0 = GOMAXPROCS)")
	fs.IntVar(&f.cacheMB, "cache-mb", 64, "record cache budget in MiB, at least 1: the corpus is read only through this LRU, which holds sources and served reps alike as stored records (1 byte/sample); a run that materializes labels over rows whose sources exceed a quarter of it reads through without admitting them")
	fs.BoolVar(&f.serveReps, "serve-reps", false, "load pre-materialized representations from the store, skipping the source load and derivation for the transforms it covers (labels are the same either way)")
	fs.StringVar(&f.materialize, "materialize", "on", "label materialization: on (cache classified labels as bitmap columns), off (re-infer every query), bg (on + serve's background analyzer pre-materializes hot predicates while the admission pool is idle)")
	fs.IntVar(&f.matMB, "mat-mb", 0, "materialized-label byte budget in MiB (0 = unbounded); coldest columns are evicted over budget")
}

// openDB opens the corpus store and builds the DB over it — the one way
// query, explain and serve read a corpus: straight out of the store, through
// the record cache. The caller installs predicates and closes the store.
func (f *corpusFlags) openDB(cmd string) (*vdb.DB, *repstore.Store, error) {
	if f.cacheMB <= 0 {
		return nil, nil, fmt.Errorf("%s: -cache-mb %d: the corpus is read only through the record cache, whose budget must be at least 1 MiB", cmd, f.cacheMB)
	}
	kind, err := scenario.ParseKind(f.scenario)
	if err != nil {
		return nil, nil, err
	}
	cm, err := scenario.NewAnalytic(kind, scenario.DefaultParams())
	if err != nil {
		return nil, nil, err
	}
	matMode, err := vdb.ParseMatMode(f.materialize)
	if err != nil {
		return nil, nil, err
	}
	store, err := repstore.Open(f.dir)
	if err != nil {
		return nil, nil, err
	}
	meta := make([]vdb.Metadata, store.Count())
	for i := range meta {
		meta[i] = vdb.Metadata{ID: int64(i), Location: "corpus", Camera: "cam-0", TS: int64(i)}
	}
	db := vdb.New(cm)
	db.SetExecOptions(exec.Options{Workers: f.workers})
	db.SetMaterialization(matMode)
	db.SetMatBudget(int64(f.matMB) << 20)
	if err := db.LoadCorpusFromStore(store, int64(f.cacheMB)<<20, meta); err != nil {
		store.Close()
		return nil, nil, err
	}
	db.ServeReps(f.serveReps)
	return db, store, nil
}

func cmdFrontier(args []string) error {
	fs := flag.NewFlagSet("frontier", flag.ExitOnError)
	zooDir := fs.String("zoo", "", "model repository directory (required)")
	scen := fs.String("scenario", "camera", "deployment scenario")
	fs.Parse(args)
	if *zooDir == "" {
		return fmt.Errorf("frontier: -zoo is required")
	}
	kind, err := scenario.ParseKind(*scen)
	if err != nil {
		return err
	}
	sys, err := loadSystem(*zooDir)
	if err != nil {
		return err
	}
	cm, err := scenario.NewAnalytic(kind, scenario.DefaultParams())
	if err != nil {
		return err
	}
	results, err := sys.EvaluateCascades(sys.BuildOptions(2), cm)
	if err != nil {
		return err
	}
	front := pareto.Frontier(core.Points(results))
	fmt.Printf("%s: %d cascades evaluated under %s; %d Pareto-optimal:\n",
		sys.Predicate, len(results), kind, len(front))
	fmt.Printf("%12s %10s  %s\n", "thru (img/s)", "accuracy", "cascade")
	for _, p := range front {
		r := results[p.Index]
		fmt.Printf("%12.0f %10.3f  %s\n", r.Throughput, r.Accuracy, r.Spec.Describe(sys.Models))
	}
	// Show where images decide inside the 5%-accuracy-budget pick.
	if pick, err := pareto.SelectByAccuracyLoss(front, 0.05); err == nil {
		stats, err := sys.Evaluator.Occupancy(results[pick.Index].Spec)
		if err == nil {
			fmt.Printf("\nlevel occupancy of the 5%%-loss pick:\n")
			for i, st := range stats {
				fmt.Printf("  level %d: %s\n", i+1, st)
			}
		}
	}
	return nil
}

func cmdQuery(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ExitOnError)
	zooDir := fs.String("zoo", "", "model repository directory (required)")
	sql := fs.String("sql", "", "SQL query (required)")
	loss := fs.Float64("accuracy-loss", 0.05, "permissible accuracy loss (Uacc)")
	var corpus corpusFlags
	corpus.register(fs)
	fs.Parse(args)
	if *zooDir == "" || corpus.dir == "" || *sql == "" {
		return fmt.Errorf("%s: -zoo, -corpus and -sql are required", mode)
	}
	db, store, err := corpus.openDB(mode)
	if err != nil {
		return err
	}
	defer store.Close()
	if _, err := installPredicate(db, *zooDir); err != nil {
		return err
	}
	cons := core.Constraints{MaxAccuracyLoss: *loss}
	if mode == "explain" {
		plan, err := db.Explain(*sql, cons)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	before, _ := db.RepCacheStats()
	res, err := db.Query(*sql, cons)
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	fmt.Printf("-- %d rows, %d classifier invocations\n", res.Count, res.UDFCalls)
	if res.MatHits > 0 {
		bitmapTag := ""
		if res.Bitmap {
			bitmapTag = " (bitmap path, zero inference)"
		}
		fmt.Printf("-- materialized: %d labels served from bitmap columns%s\n", res.MatHits, bitmapTag)
	}
	if res.UDFCalls > 0 {
		fmt.Printf("-- reps: %d transformed, %d served from store\n", res.RepsMaterialized, res.RepHits)
	}
	after, _ := db.RepCacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Printf("-- rep cache: %d hits, %d misses (%.0f%% hit rate), %.1f MiB resident\n",
		hits, misses, rate, float64(after.ResidentBytes)/(1<<20))
	return nil
}
