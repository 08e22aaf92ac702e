package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tahoma/internal/arch"
	"tahoma/internal/img"
	"tahoma/internal/model"
	"tahoma/internal/repstore"
	"tahoma/internal/thresh"
	"tahoma/internal/xform"
)

// sharedGrid is the transform ladder cascades draw from by default: levels 0
// and 2 share a representation.
var sharedGrid = []xform.Transform{
	{Size: 8, Color: img.Gray},
	{Size: 16, Color: img.RGB},
	{Size: 8, Color: img.Gray},
	{Size: 16, Color: img.Gray},
}

// buildLevelsOn constructs a cascade over real (untrained, deterministically
// initialized) models drawing transforms from grid in order.
func buildLevelsOn(t *testing.T, grid []xform.Transform, seed int64, depth int) []Level {
	t.Helper()
	spec := arch.Spec{ConvLayers: 1, ConvWidth: 2, DenseWidth: 2, Kernel: 3}
	levels := make([]Level, depth)
	for i := 0; i < depth; i++ {
		m, err := model.New(spec, grid[i%len(grid)], model.Basic, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		levels[i] = Level{
			Model: m,
			// Wide uncertain band so multi-level execution actually happens.
			Thresholds: thresh.Thresholds{Low: 0.45, High: 0.55},
			Last:       i == depth-1,
		}
	}
	return levels
}

func buildLevels(t *testing.T, seed int64, depth int) []Level {
	t.Helper()
	return buildLevelsOn(t, sharedGrid, seed, depth)
}

func randFrames(seed int64, n, size int) []*img.Image {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*img.Image, n)
	for i := range out {
		im := img.New(size, size, img.RGB)
		for p := range im.Pix {
			im.Pix[p] = rng.Float32()
		}
		out[i] = im
	}
	return out
}

// storedFrames is randFrames as a store would hold them: each frame's TIMG
// record, and the frame decoded back from it. The two are the same pixels in
// two physical forms — what an image-backed and a record-backed run of one
// corpus see.
func storedFrames(t testing.TB, seed int64, n, size int) (frames []*img.Image, records [][]byte) {
	t.Helper()
	frames = randFrames(seed, n, size)
	records = make([][]byte, n)
	for i, im := range frames {
		raw, err := img.AppendRecord(nil, im)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := img.ParseRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		frames[i], records[i] = rec.Image(), raw
	}
	return frames, records
}

// recordFrames is a record-backed Source handing out its resident records
// shared, like a cache. Image always fails: a record-backed run must never
// ask for a decoded source.
type recordFrames [][]byte

func (s recordFrames) Len() int { return len(s) }

func (s recordFrames) Image(i int) (*img.Image, error) {
	return nil, fmt.Errorf("record source asked to decode frame %d", i)
}

func (s recordFrames) Records(_ context.Context, idx []int, dst []img.Record) error {
	for k, i := range idx {
		if i < 0 || i >= len(s) {
			return fmt.Errorf("record %d out of range [0,%d)", i, len(s))
		}
		var err error
		if dst[k], err = img.ParseRecord(s[i]); err != nil {
			return err
		}
	}
	return nil
}

// countingFrames and countingRecords count source loads in either physical
// form, so a run whose every slot is served can be held to loading none.
type countingFrames struct {
	Source
	loads *atomic.Int64
}

func (s countingFrames) Image(i int) (*img.Image, error) {
	s.loads.Add(1)
	return s.Source.Image(i)
}

type countingRecords struct {
	RecordSource
	loads *atomic.Int64
}

func (s countingRecords) Records(ctx context.Context, idx []int, dst []img.Record) error {
	s.loads.Add(int64(len(idx)))
	return s.RecordSource.Records(ctx, idx, dst)
}

// storedRep is transform xf of frame f as a store holds it: the record xf
// derives from f's record (AppendRecord), and that record decoded — what a
// RepSource serves, in either form.
func storedRep(t testing.TB, xf xform.Transform, f *img.Image) (raw []byte, im *img.Image) {
	t.Helper()
	src, err := img.AppendRecord(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	srcRec, err := img.ParseRecord(src)
	if err != nil {
		t.Fatal(err)
	}
	raw = xf.AppendRecord(nil, srcRec)
	rec, err := img.ParseRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	return raw, rec.Image()
}

// fakeRepSource serves stored representations for a subset of transforms,
// keyed by source frame index, and counts reads. Rep hands out the resident
// decoded image — shared, like a cache's — and fakeRepRecords the record.
type fakeRepSource struct {
	byID map[string]xform.Transform
	raws map[xform.Transform][][]byte
	ims  map[xform.Transform][]*img.Image
	hits atomic.Int64
}

// newFakeRepSource serves each served transform of each frame as stored.
func newFakeRepSource(t testing.TB, frames []*img.Image, served ...xform.Transform) *fakeRepSource {
	s := &fakeRepSource{
		byID: make(map[string]xform.Transform, len(served)),
		raws: make(map[xform.Transform][][]byte, len(served)),
		ims:  make(map[xform.Transform][]*img.Image, len(served)),
	}
	for _, xf := range served {
		s.byID[xf.ID()] = xf
		raws, ims := make([][]byte, len(frames)), make([]*img.Image, len(frames))
		for i, f := range frames {
			raws[i], ims[i] = storedRep(t, xf, f)
		}
		s.raws[xf], s.ims[xf] = raws, ims
	}
	return s
}

func (s *fakeRepSource) HasRep(id string) bool { _, ok := s.byID[id]; return ok }

func (s *fakeRepSource) Rep(i int, id string) (*img.Image, error) {
	ims := s.ims[s.byID[id]]
	if i < 0 || i >= len(ims) {
		return nil, fmt.Errorf("fake: no rep %s/%d", id, i)
	}
	s.hits.Add(1)
	return ims[i], nil
}

// fakeRepRecords is the record form of a fakeRepSource: it serves stored
// records and refuses to decode, so a run over it must take RepRecords.
type fakeRepRecords struct{ *fakeRepSource }

func (s fakeRepRecords) Rep(i int, id string) (*img.Image, error) {
	return nil, fmt.Errorf("record rep source asked to decode %s/%d", id, i)
}

func (s fakeRepRecords) RepRecords(_ context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	raws := s.raws[t]
	var first error
	for k, i := range idx {
		dst[k] = img.Record{}
		if i < 0 || i >= len(raws) {
			if first == nil {
				first = fmt.Errorf("fake: no rep record %s/%d", t.ID(), i)
			}
			continue
		}
		s.hits.Add(1)
		var err error
		if dst[k], err = img.ParseRecord(raws[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// refFrame is what the independent reference expects one position of a run
// to have done.
type refFrame struct {
	label  bool
	levels int
	reps   int // (frame, slot) pairs transformed
	hits   int // (frame, slot) pairs the RepSource serves instead
}

// referenceWalk is the independent oracle: a per-frame walk down the cascade
// with one representation map per frame — the semantics the seed runtime
// implemented. It shares no loop with the engine: every representation is
// the frame's record derived the way a store derives it (storedRep), whose
// bytes xform's own tests hold to an exact reference, and a served transform
// counts as a hit instead of a rep — the same samples either way.
func referenceWalk(t *testing.T, levels []Level, frames []*img.Image, indices []int, served map[string]bool) []refFrame {
	t.Helper()
	out := make([]refFrame, len(indices))
	for j, idx := range indices {
		var rf refFrame
		cache := make(map[string]*img.Image)
		decided := false
		for li := range levels {
			lv := &levels[li]
			id := lv.Model.Xform.ID()
			rep, ok := cache[id]
			if !ok {
				_, rep = storedRep(t, lv.Model.Xform, frames[idx])
				if served[id] {
					rf.hits++
				} else {
					rf.reps++
				}
				cache[id] = rep
			}
			score, err := lv.Model.Score(rep)
			if err != nil {
				t.Fatal(err)
			}
			rf.levels++
			if lv.Last {
				rf.label, decided = score >= 0.5, true
				break
			}
			if dec, positive := lv.Thresholds.Decide(score); dec {
				rf.label, decided = positive, true
				break
			}
		}
		if !decided {
			t.Fatal("no level decided")
		}
		out[j] = rf
	}
	return out
}

// checkAgainstReference holds a report to the reference walk: labels,
// positives, and — per batch and in aggregate — LevelsRun, exactly-once
// RepsMaterialized and RepHits.
func checkAgainstReference(t *testing.T, rep *Report, ref []refFrame, batch int) {
	t.Helper()
	if rep.Frames != len(ref) {
		t.Fatalf("processed %d frames, want %d", rep.Frames, len(ref))
	}
	if want := (len(ref) + batch - 1) / batch; len(rep.Batches) != want {
		t.Fatalf("%d batches, want %d", len(rep.Batches), want)
	}
	totLevels, totReps, totHits, next := 0, 0, 0, 0
	for b, st := range rep.Batches {
		if st.Start != next {
			t.Fatalf("batch %d starts at %d, want %d", b, st.Start, next)
		}
		next += st.Frames
		wantLevels, wantReps, wantHits := 0, 0, 0
		for _, rf := range ref[st.Start : st.Start+st.Frames] {
			wantLevels += rf.levels
			wantReps += rf.reps
			wantHits += rf.hits
		}
		if st.LevelsRun != wantLevels || st.RepsMaterialized != wantReps || st.RepHits != wantHits {
			t.Fatalf("batch %d: %d levels / %d reps / %d hits, reference %d / %d / %d",
				b, st.LevelsRun, st.RepsMaterialized, st.RepHits, wantLevels, wantReps, wantHits)
		}
		totLevels, totReps, totHits = totLevels+wantLevels, totReps+wantReps, totHits+wantHits
	}
	if next != len(ref) {
		t.Fatalf("batch stats cover %d frames, want %d", next, len(ref))
	}
	if rep.LevelsRun != totLevels || rep.RepsMaterialized != totReps || rep.RepHits != totHits || rep.RepFallbacks != 0 {
		t.Fatalf("run: %d levels / %d reps / %d hits / %d fallbacks, reference %d / %d / %d / 0",
			rep.LevelsRun, rep.RepsMaterialized, rep.RepHits, rep.RepFallbacks, totLevels, totReps, totHits)
	}
	if len(rep.Labels) != len(ref) {
		t.Fatalf("%d labels for %d positions", len(rep.Labels), len(ref))
	}
	positives := 0
	for j, rf := range ref {
		if rep.Labels[j] != rf.label {
			t.Fatalf("position %d: label %v, reference %v", j, rep.Labels[j], rf.label)
		}
		if rf.label {
			positives++
		}
	}
	if rep.Positives != positives {
		t.Fatalf("Positives = %d, reference = %d", rep.Positives, positives)
	}
}

// parityShapes are the cascade shapes TestEngineParity runs: every depth the
// planner can pick and then some, with each level on its own transform or
// reusing an earlier level's, so a slot is filled by the first level that
// needs it and read by every later one.
var parityShapes = []struct {
	name string
	grid []xform.Transform
}{
	{"d=1", sharedGrid[:1]},
	{"d=2/distinct", sharedGrid[:2]},
	{"d=2/reuse", []xform.Transform{{Size: 8, Color: img.Gray}, {Size: 8, Color: img.Gray}}},
	{"d=3/distinct", []xform.Transform{{Size: 8, Color: img.Gray}, {Size: 16, Color: img.RGB}, {Size: 16, Color: img.Gray}}},
	{"d=3/reuse", sharedGrid[:3]},
	{"d=4", sharedGrid},
}

// TestEngineParity is the engine's core property, as one table: cascade
// shape (depth 1–4, levels on distinct transforms or reusing one) × frame
// list (the whole source in order, or permuted and gapped so positions and
// corpus indices differ everywhere) × RepSource (none, the first level's
// transform, or every transform, so no source is ever loaded; served as
// decoded images, as stored records — served=record — or by a real store
// that materialized every transform at ingest, read through
// repstore.Cache.RepRecord — repstore-all) × the deprecated Quantize knob ×
// workers × batch size × the physical form of the source (decoded images,
// resident stored records, or an on-disk store read through a record cache a
// tenth of its size). Every run must match the independent reference walk —
// labels, LevelsRun, exactly-once RepsMaterialized and RepHits, per batch and
// in aggregate — whose samples do not depend on which slots are served, so
// every served column's labels must equal the derived column's; and the
// unserved reference must equal the engine's own per-frame ClassifyOne walk. Nothing about scheduling, nothing about how the source or
// a representation is held, and not the Quantize value the benchmark harness
// still passes, may move any of them.
func TestEngineParity(t *testing.T) {
	// Both former scoring modes must run the one float32 path: the reference
	// walk is the same for each.
	quantModes := []struct {
		name string
		mode QuantMode
	}{{"off", QuantOff}, {"auto", QuantAuto}}
	frames, records := storedFrames(t, 2200, 47, 32)
	// The store materializes every transform any parity shape uses.
	stored := []xform.Transform{{Size: 8, Color: img.Gray}, {Size: 16, Color: img.RGB}, {Size: 16, Color: img.Gray}}
	store, err := repstore.Create(t.TempDir(), 32, 32, stored)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.IngestAll(frames); err != nil {
		t.Fatal(err)
	}
	record := int64(frames[0].StoredBytes())
	budget := int64(len(frames)) * record / 10
	sources := []struct {
		suffix string
		// src returns the run's source and, when it reads through one, the
		// record cache.
		src func(t *testing.T, loads *atomic.Int64) (Source, *repstore.Cache)
	}{
		{"", func(_ *testing.T, l *atomic.Int64) (Source, *repstore.Cache) {
			return countingFrames{Frames(frames), l}, nil
		}},
		{"/src=record", func(_ *testing.T, l *atomic.Int64) (Source, *repstore.Cache) {
			return countingRecords{recordFrames(records), l}, nil
		}},
		// A cache holding a tenth of the corpus: a run misses, and evicts
		// records other workers still hold.
		{"/src=store-evict", func(t *testing.T, l *atomic.Int64) (Source, *repstore.Cache) {
			c, err := repstore.NewCache(store, budget)
			if err != nil {
				t.Fatal(err)
			}
			return countingRecords{storeSource{store, c}, l}, c
		}},
	}
	all := make([]int, len(frames))
	for i := range all {
		all[i] = i
	}
	var permuted []int
	for i := len(frames) - 1; i >= 0; i-- {
		if i%5 != 4 {
			permuted = append(permuted, i)
		}
	}
	frameLists := []struct {
		name    string
		indices []int // what the run is passed; nil = every frame in order
		ref     []int // the positions' corpus indices
	}{{"all", nil, all}, {"permuted", permuted, permuted}}
	for si, shape := range parityShapes {
		levels := buildLevelsOn(t, shape.grid, 2100+int64(100*si), len(shape.grid))
		// The repsource rows serve the first level's transform; the
		// repsource-all rows serve every transform any level uses.
		servedXf := levels[0].Model.Xform
		var allXf []xform.Transform
		allServed := make(map[string]bool)
		for _, lv := range levels {
			if id := lv.Model.Xform.ID(); !allServed[id] {
				allServed[id] = true
				allXf = append(allXf, lv.Model.Xform)
			}
		}
		eng, err := New(levels)
		if err != nil {
			t.Fatal(err)
		}
		for _, list := range frameLists {
			// The engine's own per-frame walk agrees with the independent one.
			plain := referenceWalk(t, levels, frames, list.ref, nil)
			for j, idx := range list.ref {
				label, tr, err := eng.ClassifyOne(frames[idx])
				if err != nil {
					t.Fatal(err)
				}
				if label != plain[j].label || tr.LevelsRun != plain[j].levels || len(tr.RepsCreated) != plain[j].reps {
					t.Fatalf("%s frame %d: ClassifyOne (%v, %d levels, %d reps) != reference (%v, %d, %d)",
						shape.name, idx, label, tr.LevelsRun, len(tr.RepsCreated), plain[j].label, plain[j].levels, plain[j].reps)
				}
			}
			for _, serve := range []string{"none", "repsource", "repsource-all", "repsource/served=record", "repsource-all/served=record", "repstore-all"} {
				everySlot := strings.Contains(serve, "-all")
				asRecords := strings.HasSuffix(serve, "/served=record")
				servedSet := []xform.Transform{servedXf}
				if everySlot {
					servedSet = allXf
				}
				ref := plain
				switch {
				case everySlot:
					ref = referenceWalk(t, levels, frames, list.ref, allServed)
				case serve != "none":
					ref = referenceWalk(t, levels, frames, list.ref, map[string]bool{servedXf.ID(): true})
				}
				for _, quant := range quantModes {
					for _, workers := range []int{1, 2, 4} {
						for _, batch := range []int{1, 5, 16, 100} {
							name := fmt.Sprintf("%s/frames=%s/%s/quant=%s/w=%d/b=%d",
								shape.name, list.name, serve, quant.name, workers, batch)
							for _, source := range sources {
								mkSrc := source.src
								t.Run(name+source.suffix, func(t *testing.T) {
									var loads atomic.Int64
									opts := Options{Workers: workers, Batch: batch, Quantize: quant.mode}
									var fake *fakeRepSource
									switch serve {
									case "none":
									case "repstore-all":
										c, err := repstore.NewCache(store, budget)
										if err != nil {
											t.Fatal(err)
										}
										opts.RepSource = storeReps{store, c}
									default:
										fake = newFakeRepSource(t, frames, servedSet...)
										opts.RepSource = fake
										if asRecords {
											opts.RepSource = fakeRepRecords{fake}
										}
									}
									src, cache := mkSrc(t, &loads)
									rep, err := eng.RunContext(context.Background(), src, list.indices, opts)
									if err != nil {
										t.Fatal(err)
									}
									checkAgainstReference(t, rep, ref, batch)
									if cache != nil && loads.Load() > 0 {
										if st := cache.Stats(); st.Misses == 0 || st.ResidentBytes > budget+record {
											t.Fatalf("cache of %d bytes: stats %+v: want misses and at most its budget plus one %d-byte record resident",
												budget, st, record)
										}
									}
									if fake != nil {
										if rep.RepHits == 0 {
											t.Fatal("served slot produced no RepHits")
										}
										if fake.hits.Load() != int64(rep.RepHits) {
											t.Fatalf("RepSource served %d reads, report counts %d RepHits", fake.hits.Load(), rep.RepHits)
										}
									}
									if everySlot && (rep.RepsMaterialized != 0 || loads.Load() != 0) {
										t.Fatalf("every slot served, yet %d reps transformed and %d source frames loaded",
											rep.RepsMaterialized, loads.Load())
									}
								})
							}
						}
					}
				}
			}
		}
	}
}

// TestClassifyOneTrace: the per-frame walk's trace carries one score per
// level run and the planned rep identities, and its totals are the batched
// run's.
func TestClassifyOneTrace(t *testing.T) {
	levels := buildLevels(t, 303, 3)
	eng, err := New(levels)
	if err != nil {
		t.Fatal(err)
	}
	frames := randFrames(404, 20, 32)
	rep, err := eng.Run(Frames(frames), nil, Options{Workers: 2, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	totalLevels, totalReps := 0, 0
	for i, f := range frames {
		label, tr, err := eng.ClassifyOne(f)
		if err != nil {
			t.Fatal(err)
		}
		if label != rep.Labels[i] {
			t.Fatalf("frame %d: ClassifyOne = %v, Run = %v", i, label, rep.Labels[i])
		}
		if len(tr.Scores) != tr.LevelsRun {
			t.Fatalf("frame %d: %d scores for %d levels", i, len(tr.Scores), tr.LevelsRun)
		}
		if len(tr.RepsCreated) == 0 || tr.RepsCreated[0] != levels[0].Model.Xform.ID() {
			t.Fatalf("frame %d: trace reps %v do not start at the first level's transform", i, tr.RepsCreated)
		}
		totalLevels += tr.LevelsRun
		totalReps += len(tr.RepsCreated)
	}
	if totalLevels != rep.LevelsRun || totalReps != rep.RepsMaterialized {
		t.Fatalf("trace totals (%d levels, %d reps) != run totals (%d, %d)",
			totalLevels, totalReps, rep.LevelsRun, rep.RepsMaterialized)
	}
}

func TestRepPlanning(t *testing.T) {
	// Levels 0 and 2 share 8x8/gray: 3 distinct slots for 4 levels.
	levels := buildLevels(t, 505, 4)
	eng, err := New(levels)
	if err != nil {
		t.Fatal(err)
	}
	reps := eng.repIDs
	if len(reps) != 3 {
		t.Fatalf("planned %d representation slots (%v), want 3", len(reps), reps)
	}
	if reps[0] != levels[0].Model.Xform.ID() {
		t.Fatalf("slot 0 = %q, want first level's transform", reps[0])
	}
	// Every level on one transform: one slot.
	same, err := New(buildLevelsOn(t, sharedGrid[:1], 515, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(same.repIDs); got != 1 {
		t.Fatalf("a cascade on one transform planned %d slots, want 1", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty cascade must be rejected")
	}
	levels := buildLevels(t, 606, 2)
	levels[0].Last = true // two Last levels
	if _, err := New(levels); err == nil {
		t.Fatal("non-final Last level must be rejected")
	}
	levels = buildLevels(t, 607, 2)
	levels[1].Last = false // no Last level
	if _, err := New(levels); err == nil {
		t.Fatal("missing final level must be rejected")
	}
	levels = buildLevels(t, 608, 2)
	levels[1].Model = nil
	if _, err := New(levels); err == nil {
		t.Fatal("nil model must be rejected")
	}
}

func TestRunEdgeCases(t *testing.T) {
	eng, err := New(buildLevels(t, 707, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Empty run.
	rep, err := eng.Run(Frames(nil), nil, Options{})
	if err != nil || rep.Frames != 0 || len(rep.Labels) != 0 {
		t.Fatalf("empty run: %+v, %v", rep, err)
	}
	// Index subsets are positional.
	frames := randFrames(808, 10, 32)
	full, err := eng.Run(Frames(frames), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Run(Frames(frames), []int{7, 2, 9}, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j, idx := range []int{7, 2, 9} {
		if sub.Labels[j] != full.Labels[idx] {
			t.Fatalf("subset label %d (row %d) disagrees with full run", j, idx)
		}
	}
	// Source errors surface.
	if _, err := eng.Run(Frames(frames), []int{99}, Options{}); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

// cancelOnRead is a record source that cancels its run's context while it
// loads the batch numbered at (1-based), and counts its calls.
type cancelOnRead struct {
	RecordSource
	at     int
	calls  *int
	cancel context.CancelFunc
}

func (s cancelOnRead) Records(ctx context.Context, idx []int, dst []img.Record) error {
	if *s.calls++; *s.calls == s.at {
		s.cancel()
	}
	return s.RecordSource.Records(ctx, idx, dst)
}

// TestRunContextCancel: a context cancelled while a one-worker run loads its
// second batch stops the run inside that batch. RunContext returns
// context.Canceled with a partial report flagged Cancelled, holding the first
// batch's work, and no later batch is loaded.
func TestRunContextCancel(t *testing.T) {
	eng, err := New(buildLevels(t, 909, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, records := storedFrames(t, 910, 12, 32)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	src := cancelOnRead{RecordSource: recordFrames(records), at: 2, calls: &calls, cancel: cancel}
	rep, err := eng.RunContext(ctx, src, nil, Options{Workers: 1, Batch: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled in batch 2 returned %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Cancelled {
		t.Fatalf("cancelled run's report %+v is not flagged Cancelled", rep)
	}
	if calls != 2 {
		t.Fatalf("%d batches loaded, want 2: the run went on past the cancellation", calls)
	}
	if rep.Batches[0].LevelsRun == 0 || rep.Batches[1].LevelsRun != 0 {
		t.Fatalf("levels run per batch %d, %d: want the first batch's work and none of the second's",
			rep.Batches[0].LevelsRun, rep.Batches[1].LevelsRun)
	}
}

// TestExactlyOnceMaterialization pins the headline economics: levels that
// reuse a transform materialize each (frame, slot) pair exactly once per run
// — half what one transform per level pays here — at every worker count and
// batch size.
func TestExactlyOnceMaterialization(t *testing.T) {
	grid := []xform.Transform{
		{Size: 8, Color: img.Gray},
		{Size: 16, Color: img.Gray},
	}
	levels := buildLevelsOn(t, grid, 3100, 2*len(grid))
	// Never-deciding bands: every frame descends every level, so every
	// (frame, slot) pair is touched by two levels.
	for i := range levels[:len(levels)-1] {
		levels[i].Thresholds = thresh.Thresholds{Low: -1, High: 2}
	}
	eng, err := New(levels)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.repIDs); got != len(grid) {
		t.Fatalf("plan has %d slots, want %d", got, len(grid))
	}
	frames := randFrames(3300, 40, 32)
	want := len(frames) * len(grid)
	for _, workers := range []int{1, 3} {
		for _, batch := range []int{1, 7, 64} {
			rep, err := eng.Run(Frames(frames), nil, Options{Workers: workers, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			if rep.LevelsRun != len(frames)*len(levels) {
				t.Fatalf("w=%d b=%d: %d levels run, want every frame through all %d", workers, batch, rep.LevelsRun, len(levels))
			}
			if rep.RepsMaterialized != want {
				t.Fatalf("w=%d b=%d: materialized %d reps, want exactly %d (once per frame-slot)",
					workers, batch, rep.RepsMaterialized, want)
			}
		}
	}
}

// TestRepSourcePoolHygiene pins the engine's one buffer-ownership rule:
// every buffer a batch scores is the worker's own. A served image is encoded
// to its record and a served record expanded into the worker's pooled
// buffer, so after a served run no pooled buffer is a RepSource's image, no
// served image was written, and a later run without the source is unaffected
// by what the served runs left behind.
func TestRepSourcePoolHygiene(t *testing.T) {
	eng, err := New(buildLevels(t, 5500, 3))
	if err != nil {
		t.Fatal(err)
	}
	frames := randFrames(5600, 25, 32)
	base, err := eng.Run(Frames(frames), nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := newFakeRepSource(t, frames, xform.Transform{Size: 8, Color: img.Gray})
	served := make(map[*img.Image][]float32)
	for _, ims := range src.ims {
		for _, im := range ims {
			served[im] = append([]float32(nil), im.Pix...)
		}
	}
	for _, rs := range []RepSource{src, fakeRepRecords{src}} {
		rep, err := eng.Run(Frames(frames), nil, Options{Workers: 2, Batch: 8, RepSource: rs})
		if err != nil {
			t.Fatal(err)
		}
		if rep.RepHits == 0 {
			t.Fatalf("%T: nothing served", rs)
		}
		for _, w := range eng.idle {
			for slot, row := range w.reps {
				for j, buf := range row {
					if _, shared := served[buf]; shared {
						t.Fatalf("%T: worker buffer [%d][%d] is a served image", rs, slot, j)
					}
				}
			}
		}
		for im, pix := range served {
			if !slices.Equal(im.Pix, pix) {
				t.Fatalf("%T: a served image was written", rs)
			}
		}
	}
	again, err := eng.Run(Frames(frames), nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again.RepsMaterialized != base.RepsMaterialized || again.RepHits != 0 {
		t.Fatalf("post-serving run: %d reps / %d hits, want %d / 0",
			again.RepsMaterialized, again.RepHits, base.RepsMaterialized)
	}
	for i := range frames {
		if again.Labels[i] != base.Labels[i] {
			t.Fatalf("post-serving label differs at frame %d", i)
		}
	}
}

// failingRepSource claims to serve every transform and fails every read.
type failingRepSource struct{}

func (failingRepSource) HasRep(string) bool { return true }

func (failingRepSource) Rep(i int, id string) (*img.Image, error) {
	return nil, fmt.Errorf("rep %s/%d unreadable", id, i)
}

// TestRepFallbackAcrossSources: when every served read fails — so no batch
// pre-loads its sources and each fallback loads on demand — an image-backed
// and a record-backed run degrade to the same thing: the labels and level
// counts of the plain run, every slot a counted fallback transform.
func TestRepFallbackAcrossSources(t *testing.T) {
	eng, err := New(buildLevels(t, 5700, 3))
	if err != nil {
		t.Fatal(err)
	}
	frames, records := storedFrames(t, 5800, 40, 32)
	plain, err := eng.Run(Frames(frames), nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for name, src := range map[string]Source{
			"image":  Frames(frames),
			"record": recordFrames(records),
		} {
			rep, err := eng.Run(src, nil, Options{Workers: workers, Batch: 7, RepSource: failingRepSource{}})
			if err != nil {
				t.Fatalf("%s w=%d: rep-read failure must degrade, not error: %v", name, workers, err)
			}
			if rep.RepHits != 0 || rep.RepFallbacks != plain.RepsMaterialized || rep.RepsMaterialized != plain.RepsMaterialized {
				t.Fatalf("%s w=%d: %d hits / %d fallbacks / %d reps, want 0 / %d / %d", name, workers,
					rep.RepHits, rep.RepFallbacks, rep.RepsMaterialized, plain.RepsMaterialized, plain.RepsMaterialized)
			}
			if rep.LevelsRun != plain.LevelsRun {
				t.Fatalf("%s w=%d: LevelsRun %d, plain run %d", name, workers, rep.LevelsRun, plain.LevelsRun)
			}
			for i := range frames {
				if rep.Labels[i] != plain.Labels[i] {
					t.Fatalf("%s w=%d frame %d: label differs from the plain run", name, workers, i)
				}
			}
		}
	}
}

// TestErrorNamesFrame: a scoring failure must name the offending corpus
// frame, not a batch-local position, and so must a failed source load. An
// RGB-transform level over a grayscale frame is the reachable scoring
// failure: an RGB transform keeps the record's mode and model geometry
// validation rejects the single-channel representation.
func TestErrorNamesFrame(t *testing.T) {
	for _, depth := range []int{2, 3} {
		levels := buildLevels(t, 6100, depth)
		// A never-deciding first level so every frame reaches the 16x16/rgb level.
		levels[0].Thresholds.Low, levels[0].Thresholds.High = -1, 2
		eng, err := New(levels)
		if err != nil {
			t.Fatal(err)
		}
		frames := randFrames(6200, 10, 32)
		frames[7] = img.New(32, 32, img.Gray)
		for _, opts := range []Options{{Workers: 1, Batch: 5}, {Workers: 2, Batch: 3}} {
			_, err := eng.Run(Frames(frames), nil, opts)
			if err == nil {
				t.Fatalf("d=%d opts %+v: grayscale frame under an RGB level must fail", depth, opts)
			}
			if !strings.Contains(err.Error(), "frame 7") {
				t.Fatalf("d=%d opts %+v: error %q does not name frame 7", depth, opts, err)
			}
		}
		_, err = eng.Run(Frames(frames), []int{0, 99}, Options{Workers: 2, Batch: 1})
		if err == nil || !strings.Contains(err.Error(), "frame 99") {
			t.Fatalf("d=%d: out-of-range load error = %v, want frame 99 named", depth, err)
		}
	}
}

// storeSource is a Source over a real on-disk store read through its record
// cache — the shape of vdb's store-backed corpus.
type storeSource struct {
	store *repstore.Store
	cache *repstore.Cache
}

func (s storeSource) Len() int { return s.store.Count() }

func (s storeSource) Image(i int) (*img.Image, error) {
	return nil, fmt.Errorf("record source asked to decode frame %d", i)
}

func (s storeSource) Records(ctx context.Context, idx []int, dst []img.Record) error {
	return s.cache.Records(ctx, xform.Transform{}, idx, dst)
}

// storeReps serves a store's representations as stored records through its
// record cache — the shape of vdb's repSource.
type storeReps struct {
	store *repstore.Store
	cache *repstore.Cache
}

func (s storeReps) HasRep(id string) bool {
	return slices.ContainsFunc(s.store.Transforms(), func(t xform.Transform) bool { return t.ID() == id })
}

func (s storeReps) Rep(i int, id string) (*img.Image, error) {
	return nil, fmt.Errorf("record rep source asked to decode %s/%d", id, i)
}

func (s storeReps) RepRecords(ctx context.Context, t xform.Transform, idx []int, dst []img.Record) error {
	return s.cache.Records(ctx, t, idx, dst)
}

// TestSteadyStateAllocs: once the worker pool is warm, a run allocates its
// Report/Labels/Batches and fan-out plumbing (7–14 objects) and nothing per
// frame — pooled representation buffers instead of a fresh image per
// transform, and an image-form frame encoded into the worker's own record
// buffer, reused from batch to batch. A store-backed run allocates nothing
// per frame when every record is resident, and exactly the record itself —
// which the cache then owns — when every read is a cache miss. A run whose every slot the store serves as resident rep records
// allocates nothing per frame either: each is expanded into the worker's
// pooled buffer.
func TestSteadyStateAllocs(t *testing.T) {
	const n = 256
	frames, _ := storedFrames(t, 1400, n, 32)
	// The store materializes the two transforms the shared-grid cascades
	// below use (8x8/gray, 16x16/rgb), so the rep-record row serves every
	// slot.
	store, err := repstore.Create(t.TempDir(), 32, 32, sharedGrid[:2:2])
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.IngestAll(frames); err != nil {
		t.Fatal(err)
	}
	newCache := func(capacity int64) *repstore.Cache {
		c, err := repstore.NewCache(store, capacity)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	record := int64(frames[0].StoredBytes())
	for _, tc := range []struct {
		name     string
		src      Source
		reps     RepSource
		perFrame float64 // allocations every frame must cost
	}{
		{"image", Frames(frames), nil, 0},
		{"record/hit", storeSource{store, newCache(2 * n * record)}, nil, 0},
		{"record/miss", storeSource{store, newCache(n / 2 * record)}, nil, 1}, // a sequential scan of twice the cache never hits
		{"rep-record/hit", Frames(frames), storeReps{store, newCache(2 * n * record)}, 0},
	} {
		for _, depth := range []int{1, 3} {
			eng, err := New(buildLevels(t, 1300, depth))
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workers: 1, Batch: 32, RepSource: tc.reps}
			warm, err := eng.Run(tc.src, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reps != nil && (warm.RepsMaterialized != 0 || warm.RepHits == 0) {
				t.Fatalf("%s: %d reps transformed, %d served: want every slot served", tc.name, warm.RepsMaterialized, warm.RepHits)
			}
			avg := testing.AllocsPerRun(5, func() {
				if _, err := eng.Run(tc.src, nil, opts); err != nil {
					t.Fatal(err)
				}
			})
			// What is left after the per-frame cost is the per-run overhead.
			// The bound on it is loose on purpose: one allocation per frame
			// costs n, so n/2 catches it, while the per-run plumbing may move
			// by a few objects without failing the test.
			overhead := avg - tc.perFrame*n
			if overhead < 0 || overhead > n/2 {
				t.Fatalf("%s d=%d: %.0f allocations per %d-frame run: want %.0f per frame plus a small per-run overhead, got overhead %.0f",
					tc.name, depth, avg, n, tc.perFrame, overhead)
			}
		}
	}
}
