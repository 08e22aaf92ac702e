package tahoma_test

import (
	"context"
	"fmt"
	"net"

	"tahoma"
)

// exampleFixture trains one tiny predicate for the examples that need an
// executable classifier. Corpus and config are small enough to initialize in
// well under a second.
func exampleFixture() (*tahoma.Predicate, tahoma.Splits) {
	splits, err := tahoma.GenerateCorpus("cloak", tahoma.CorpusOptions{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	params := tahoma.DefaultCostParams()
	params.SourceW, params.SourceH = 16, 16
	pred, err := tahoma.InstallPredicate("cloak", splits, tahoma.TinyConfig(),
		tahoma.Camera, params)
	if err != nil {
		panic(err)
	}
	return pred, splits
}

// Example shows the full lifecycle: generate a corpus, initialize the
// predicate, inspect the frontier, choose a cascade, classify.
func Example() {
	splits, err := tahoma.GenerateCorpus("cloak", tahoma.CorpusOptions{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
	})
	if err != nil {
		panic(err)
	}

	params := tahoma.DefaultCostParams()
	params.SourceW, params.SourceH = 16, 16
	pred, err := tahoma.InstallPredicate("cloak", splits, tahoma.TinyConfig(),
		tahoma.Camera, params)
	if err != nil {
		panic(err)
	}

	clf, err := pred.Choose(tahoma.Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		panic(err)
	}
	label, err := clf.Classify(splits.Eval.Examples[0].Image)
	if err != nil {
		panic(err)
	}
	fmt.Println(label == splits.Eval.Examples[0].Label)
	// Output: true
}

// ExamplePredicate_Reprice demonstrates re-pricing an installed predicate
// under a different deployment scenario without retraining: evaluation is
// cheap because per-model scores are computed once at initialization.
func ExamplePredicate_Reprice() {
	splits, err := tahoma.GenerateCorpus("cloak", tahoma.CorpusOptions{
		BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 60, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	params := tahoma.DefaultCostParams()
	params.SourceW, params.SourceH = 16, 16
	pred, err := tahoma.InstallPredicate("cloak", splits, tahoma.TinyConfig(),
		tahoma.InferOnly, params)
	if err != nil {
		panic(err)
	}
	archive, err := pred.Reprice(tahoma.Archive, params)
	if err != nil {
		panic(err)
	}
	// The archive scenario prices full-size loads, so every cascade's
	// throughput drops relative to inference-only pricing.
	fastest := func(p *tahoma.Predicate) float64 {
		best := 0.0
		for _, pt := range p.Frontier() {
			if pt.Throughput > best {
				best = pt.Throughput
			}
		}
		return best
	}
	fmt.Println(fastest(archive) < fastest(pred))
	// Output: true
}

// ExampleClassifier_ClassifyBatch labels a whole batch through the execution
// engine. Batched labels are bit-identical to per-image Classify calls — the
// engine only reorders the work (level-major, worker-parallel).
func ExampleClassifier_ClassifyBatch() {
	pred, splits := exampleFixture()
	clf, err := pred.Choose(tahoma.Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		panic(err)
	}
	images := make([]*tahoma.Image, len(splits.Eval.Examples))
	for i, e := range splits.Eval.Examples {
		images[i] = e.Image
	}
	batch, err := clf.ClassifyBatch(images)
	if err != nil {
		panic(err)
	}
	match := true
	for i, im := range images {
		one, err := clf.Classify(im)
		if err != nil {
			panic(err)
		}
		match = match && one == batch[i]
	}
	fmt.Println(len(batch) == len(images) && match)
	// Output: true
}

// ExampleClassifier_ClassifyBatchReport sizes the execution engine
// explicitly with ExecOptions and reads the run's accounting: frames,
// cascade levels executed, physical representations materialized, measured
// throughput.
func ExampleClassifier_ClassifyBatchReport() {
	pred, splits := exampleFixture()
	clf, err := pred.Choose(tahoma.Constraints{MaxAccuracyLoss: 0.05})
	if err != nil {
		panic(err)
	}
	images := make([]*tahoma.Image, len(splits.Eval.Examples))
	for i, e := range splits.Eval.Examples {
		images[i] = e.Image
	}
	rep, err := clf.ClassifyBatchReport(images, tahoma.ExecOptions{Workers: 2, Batch: 16})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Frames == len(images))
	fmt.Println(rep.LevelsRun >= rep.Frames)        // every frame runs >= 1 level
	fmt.Println(rep.RepsMaterialized >= rep.Frames) // >= 1 representation each
	fmt.Println(rep.Throughput > 0 && len(rep.Batches) == (len(images)+15)/16)
	// Output:
	// true
	// true
	// true
	// true
}

// ExampleNewServer runs the concurrent query service end to end: a DB over
// an in-memory corpus, the HTTP server, and a client issuing SQL. The repeated content query is served from the
// materialized predicate column — zero classifier calls.
func ExampleNewServer() {
	pred, splits := exampleFixture()

	params := tahoma.DefaultCostParams()
	params.SourceW, params.SourceH = 16, 16
	db, err := tahoma.NewDB(tahoma.Camera, params)
	if err != nil {
		panic(err)
	}
	images := make([]*tahoma.Image, len(splits.Eval.Examples))
	meta := make([]tahoma.Metadata, len(splits.Eval.Examples))
	for i, e := range splits.Eval.Examples {
		images[i] = e.Image
		meta[i] = tahoma.Metadata{ID: int64(i), Location: "lab", Camera: "cam-0", TS: int64(i)}
	}
	if err := db.LoadCorpus(images, meta); err != nil {
		panic(err)
	}
	if err := db.InstallPredicate("cloak", pred.System(), 2); err != nil {
		panic(err)
	}

	srv := tahoma.NewServer(db, tahoma.ServerOptions{MaxConcurrent: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	client := tahoma.NewClient("http://" + ln.Addr().String())
	count, err := client.Query("SELECT COUNT(*) FROM images", tahoma.ClientQueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("rows:", count.Count)

	first, err := client.Query("SELECT id FROM images WHERE contains_object('cloak')", tahoma.ClientQueryOptions{})
	if err != nil {
		panic(err)
	}
	repeat, err := client.Query("SELECT id FROM images WHERE contains_object('cloak')", tahoma.ClientQueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("first run classifies:", first.UDFCalls == len(images))
	fmt.Println("repeat classifier calls:", repeat.UDFCalls)
	// Output:
	// rows: 60
	// first run classifies: true
	// repeat classifier calls: 0
}
