package tahoma

// bench_test.go regenerates the paper's evaluation as testing.B benchmarks:
// one benchmark per table and figure (the measured unit is the experiment's
// evaluation/selection phase — training happens once in shared setup, as in
// the paper, where the 360 models per predicate are trained during system
// initialization and reused by every experiment). Each experiment's rows are
// printed once, so `go test -bench=. -benchmem` output doubles as the
// reproduction record. The experiments themselves live in
// internal/experiments; `tahoma-bench -exp <name>` runs one of them alone.
//
// Alongside the figure benchmarks are micro-benchmarks of the moving parts
// (inference, transforms, bitset cascade evaluation, frontier computation)
// and the ablations DESIGN.md calls out (bitset simulator vs naive walk,
// representation-cost dedup on vs off; the implicit-GEMM vs direct
// convolution pair lives beside the conv block in internal/nn).

import (
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/bitset"
	"tahoma/internal/cascade"
	"tahoma/internal/experiments"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/pareto"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// ---- shared suite -------------------------------------------------------

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
	benchSuiteErr  error
)

func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		// The quick-scale suite: three predicates (one per representation-
		// sensitivity kind) on a 32×32 corpus with a 3-size grid. Setup
		// trains for ~20s once; the printed rows then reproduce the paper's
		// shapes (EXPERIMENTS.md carries the full default-scale numbers).
		benchSuite, benchSuiteErr = experiments.NewSuite(experiments.QuickConfig(), nil)
	})
	if benchSuiteErr != nil {
		b.Fatal(benchSuiteErr)
	}
	return benchSuite
}

// printOnce gates each experiment's row output to the first iteration.
var printGates sync.Map

func rowsWriter(name string) io.Writer {
	if _, loaded := printGates.LoadOrStore(name, true); loaded {
		return io.Discard
	}
	return os.Stdout
}

// ---- one benchmark per paper table/figure -------------------------------

func BenchmarkTableII(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("tab2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TableII(w)
		w = io.Discard
	}
}

func BenchmarkFigure4(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure4(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure5(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure6(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig6")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure6(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure7(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig7")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure7(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure8(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig8")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure8(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure9(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig9")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure9(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkTableIII(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("tab3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.TableIII(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure10(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig10")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure10(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

func BenchmarkFigure11(b *testing.B) {
	s := suiteForBench(b)
	w := rowsWriter("fig11")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure11(w); err != nil {
			b.Fatal(err)
		}
		w = io.Discard
	}
}

// ---- micro-benchmarks ---------------------------------------------------

func benchModel(b *testing.B, size int, color img.ColorMode, spec arch.Spec) (*model.Model, *img.Image) {
	b.Helper()
	m, err := model.New(spec, xform.Transform{Size: size, Color: color}, model.Basic, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	rep := img.New(size, size, color)
	for i := range rep.Pix {
		rep.Pix[i] = rng.Float32()
	}
	return m, rep
}

func BenchmarkInferenceSmall(b *testing.B) {
	m, rep := benchModel(b, 8, img.Gray, arch.Spec{ConvLayers: 1, ConvWidth: 4, DenseWidth: 8, Kernel: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(rep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceLarge(b *testing.B) {
	m, rep := benchModel(b, 64, img.RGB, arch.Spec{ConvLayers: 3, ConvWidth: 16, DenseWidth: 32, Kernel: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Score(rep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThresholdCalibration(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 500
	scores := make([]float32, n)
	labels := make([]bool, n)
	for i := range scores {
		labels[i] = rng.Intn(2) == 0
		base := float32(0.3)
		if labels[i] {
			base = 0.7
		}
		scores[i] = base + 0.4*(rng.Float32()-0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thresh.Calibrate(scores, labels, 0.95, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParetoFrontier100k(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]pareto.Point, 100_000)
	for i := range pts {
		pts[i] = pareto.Point{Throughput: rng.Float64() * 1e4, Accuracy: rng.Float64(), Index: i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pareto.Frontier(pts)
	}
}

// benchEvaluator builds a mid-size synthetic evaluator shared by the
// cascade-evaluation benchmarks.
func benchEvaluator(b *testing.B) (*cascade.Evaluator, []cascade.Spec, *cascade.CostTable) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	const nModels, nThresh, nEval = 24, 3, 512
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 2, Kernel: 3}
	sizes := []int{8, 16}
	colors := []img.ColorMode{img.Gray, img.RGB}
	var models []*model.Model
	for i := 0; i < nModels; i++ {
		tr := xform.Transform{Size: sizes[i%2], Color: colors[(i/2)%2]}
		m, err := model.New(spec, tr, model.Basic, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	truth := make([]bool, nEval)
	scores := make([][]float32, nModels)
	ths := make([][]thresh.Thresholds, nModels)
	for i := range truth {
		truth[i] = rng.Intn(2) == 0
	}
	for m := 0; m < nModels; m++ {
		scores[m] = make([]float32, nEval)
		for i := range scores[m] {
			base := float32(0.3)
			if truth[i] {
				base = 0.7
			}
			scores[m][i] = base + 0.5*(rng.Float32()-0.5)
		}
		for t := 0; t < nThresh; t++ {
			ths[m] = append(ths[m], thresh.Thresholds{Low: 0.2, High: 0.8})
		}
	}
	ev, err := cascade.NewEvaluator(models, scores, ths, truth)
	if err != nil {
		b.Fatal(err)
	}
	specs, err := cascade.Build(cascade.BuildOptions{
		LevelModels: seq(nModels), FinalModels: seq(nModels),
		NumThresh: nThresh, MaxDepth: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return ev, specs, ev.CompileCosts(cm)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BenchmarkCascadeEvaluation measures the paper's headline evaluation claim
// (millions of cascades per minute); ns/op here is per cascade.
func BenchmarkCascadeEvaluation(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	scratch := ev.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Evaluate(specs[i%len(specs)], ct, scratch)
	}
}

func BenchmarkCascadeEvaluateAllParallel(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.EvaluateAll(specs, ct, 0)
	}
	b.ReportMetric(float64(len(specs)), "cascades/op")
}

func BenchmarkBitsetAndCount(b *testing.B) {
	x := bitset.New(4096)
	y := bitset.New(4096)
	for i := 0; i < 4096; i += 3 {
		x.Set(i)
	}
	for i := 0; i < 4096; i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

func BenchmarkTIMGEncodeDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	im := img.New(64, 64, img.RGB)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := img.Encode(&buf, im); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// benchStore builds a small on-disk representation store.
func benchStore(b *testing.B, n int) *repstore.Store {
	b.Helper()
	dir := b.TempDir()
	store, err := repstore.Create(dir, 32, 32, []xform.Transform{{Size: 8, Color: img.Gray}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	rng := rand.New(rand.NewSource(9))
	ims := make([]*img.Image, n)
	for i := range ims {
		im := img.New(32, 32, img.RGB)
		for j := range im.Pix {
			im.Pix[j] = rng.Float32()
		}
		ims[i] = im
	}
	if err := store.IngestAll(ims); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkRepStoreLoadRep measures loading one pre-transformed
// representation from disk and expanding it into a reused buffer — the
// ONGOING scenario's per-image cost.
func BenchmarkRepStoreLoadRep(b *testing.B) {
	store := benchStore(b, 64)
	tr := xform.Transform{Size: 8, Color: img.Gray}
	var scratch, derived []byte
	var dst *img.Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := store.RepRecord(i%64, tr, &scratch)
		if err != nil {
			b.Fatal(err)
		}
		dst, derived = tr.ApplyRecord(dst, derived, rec)
	}
}

// BenchmarkRepStoreCachedLoad measures the same reads through the LRU cache
// once warm.
func BenchmarkRepStoreCachedLoad(b *testing.B) {
	store := benchStore(b, 64)
	cache, err := repstore.NewCache(store, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	tr := xform.Transform{Size: 8, Color: img.Gray}
	for i := 0; i < 64; i++ {
		if _, err := cache.Rep(i, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Rep(i%64, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks (design decisions from DESIGN.md) --------------

// naiveSimulate is the per-image reference the bitset simulator replaced.
func naiveSimulate(scores [][]float32, ths [][]thresh.Thresholds, truth []bool,
	s cascade.Spec, ct *cascade.CostTable) (float64, float64) {
	n := len(truth)
	correct := 0
	var cost float64
	for i := 0; i < n; i++ {
		cost += ct.Source
		var seen [cascade.MaxLevels]int32
		nseen := 0
		for k := int32(0); k < s.Depth; k++ {
			ref := s.L[k]
			cost += ct.Infer[ref.Model]
			rid := ct.RepIdx[ref.Model]
			first := true
			for j := 0; j < nseen; j++ {
				if seen[j] == rid {
					first = false
					break
				}
			}
			if first {
				seen[nseen] = rid
				nseen++
				cost += ct.Rep[ref.Model]
			}
			score := scores[ref.Model][i]
			if ref.Thresh == cascade.Final {
				if (score >= 0.5) == truth[i] {
					correct++
				}
				break
			}
			if decided, positive := ths[ref.Model][ref.Thresh].Decide(score); decided {
				if positive == truth[i] {
					correct++
				}
				break
			}
		}
	}
	return float64(correct) / float64(n), cost / float64(n)
}

// BenchmarkAblationSimulatorBitset vs ...Naive: the word-parallel simulator
// against the straightforward per-image walk (same work, same results).
func BenchmarkAblationSimulatorBitset(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	scratch := ev.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.Evaluate(specs[i%len(specs)], ct, scratch)
	}
}

func BenchmarkAblationSimulatorNaive(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	_ = ev
	// Rebuild the raw inputs the naive walk needs.
	rng := rand.New(rand.NewSource(6))
	const nModels, nThresh, nEval = 24, 3, 512
	truth := make([]bool, nEval)
	scores := make([][]float32, nModels)
	ths := make([][]thresh.Thresholds, nModels)
	for i := range truth {
		truth[i] = rng.Intn(2) == 0
	}
	for m := 0; m < nModels; m++ {
		scores[m] = make([]float32, nEval)
		for i := range scores[m] {
			base := float32(0.3)
			if truth[i] {
				base = 0.7
			}
			scores[m][i] = base + 0.5*(rng.Float32()-0.5)
		}
		for t := 0; t < nThresh; t++ {
			ths[m] = append(ths[m], thresh.Thresholds{Low: 0.2, High: 0.8})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveSimulate(scores, ths, truth, specs[i%len(specs)], ct)
	}
}

// BenchmarkAblationDedup{On,Off}: Section VI's "costs incurred once per
// input" rule. Off prices every level's representation independently —
// quantifying how much the shared-representation accounting changes costs.
func BenchmarkAblationDedupOn(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	scratch := ev.NewScratch()
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += ev.Evaluate(specs[i%len(specs)], ct, scratch).AvgCost
	}
	_ = total
}

func BenchmarkAblationDedupOff(b *testing.B) {
	ev, specs, ct := benchEvaluator(b)
	// Defeat dedup by giving every model a distinct representation id.
	noDedup := *ct
	noDedup.RepIdx = make([]int32, len(ct.RepIdx))
	for i := range noDedup.RepIdx {
		noDedup.RepIdx[i] = int32(i)
	}
	scratch := ev.NewScratch()
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += ev.Evaluate(specs[i%len(specs)], &noDedup, scratch).AvgCost
	}
	_ = total
}

// BenchmarkEndToEndClassify measures the full query-time path: transform
// caching plus multi-level inference on one image.
func BenchmarkEndToEndClassify(b *testing.B) {
	s := suiteForBench(b)
	sys := s.Systems[0]
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	results, err := sys.EvaluateCascades(sys.BuildOptions(2), cm)
	if err != nil {
		b.Fatal(err)
	}
	front := pareto.Frontier(corePoints(results))
	pick, err := pareto.SelectByAccuracyLoss(front, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := sys.Runtime(results[pick.Index].Spec)
	if err != nil {
		b.Fatal(err)
	}
	im := s.Splits[0].Eval.Examples[0].Image
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rt.Classify(im); err != nil {
			b.Fatal(err)
		}
	}
}

func corePoints(results []cascade.Result) []pareto.Point {
	pts := make([]pareto.Point, len(results))
	for i, r := range results {
		pts[i] = pareto.Point{Throughput: r.Throughput, Accuracy: r.Accuracy, Index: i}
	}
	return pts
}
