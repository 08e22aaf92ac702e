package main

import (
	"bytes"
	"fmt"
	"path/filepath"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

// The zoo is part of the system under test, not of the seeded input: it is
// trained from zooSeed on every set-up so that install cost is measured, but
// it is the same zoo on every run. A zoo that changed with --seed would pick
// a different cascade per seed and the run-to-run spread would measure the
// trainer's luck, not the serving path. --seed drives the corpus pixels, the
// ingest pool and the dashboard's windows.
const (
	zooSeed   = 7
	zooTrainN = 80
	frameSide = 32
)

var zooSizes = []int{8, 16, 32}

func zooConfig() core.Config {
	cfg := core.TinyConfig()
	cfg.Sizes = zooSizes
	cfg.DeepXform = xform.Transform{Size: frameSide, Color: img.RGB}
	cfg.DeepEpochs = 6
	return cfg
}

// fixture is one run's world on disk: a zoo per predicate and the
// representation store the server starts from.
type fixture struct {
	zooDirs  []string
	storeDir string
	// pool holds TIMG-encoded frames that are not in the store: the payload
	// of camera_ingest's batches.
	pool [][]byte
}

// generateCorpus renders distinct+pool seeded frames for the workload.
// Labels alternate positive/negative, so tiling an even number of distinct
// frames keeps every window balanced.
func generateCorpus(wl *workload, seed int64) (corpus, pool []*img.Image, err error) {
	cat, err := synth.CategoryByName(wl.preds[0])
	if err != nil {
		return nil, nil, err
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: frameSide, TrainN: 2, ConfigN: 2, EvalN: wl.distinct + wl.pool, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	for i, e := range sp.Eval.Examples {
		if i < wl.distinct {
			corpus = append(corpus, e.Image)
		} else {
			pool = append(pool, e.Image)
		}
	}
	return corpus, pool, nil
}

// installZoo trains one predicate's design space and persists it, the work
// `tahoma init` does.
func installZoo(dir, category string, trainN int) error {
	cat, err := synth.CategoryByName(category)
	if err != nil {
		return err
	}
	sp, err := synth.GenerateBinary(cat, synth.Options{
		BaseSize: frameSide, TrainN: trainN, ConfigN: 40, EvalN: 40, Seed: zooSeed,
	})
	if err != nil {
		return err
	}
	sys, err := core.Initialize("contains_object("+category+")", sp, zooConfig())
	if err != nil {
		return err
	}
	return zoo.Save(dir, sys.Repo())
}

// ingestStore creates the representation store and ingests rows frames, the
// distinct corpus tiled in order. With reps it materializes the zoo's whole
// transform grid at ingest, the ONGOING layout.
func ingestStore(dir string, corpus []*img.Image, rows int, reps bool) error {
	var grid []xform.Transform
	if reps {
		grid = xform.Grid(zooSizes, zooConfig().Colors)
	}
	store, err := repstore.Create(dir, frameSide, frameSide, grid)
	if err != nil {
		return err
	}
	defer store.Close()
	tiled := make([]*img.Image, rows)
	for i := range tiled {
		tiled[i] = corpus[i%len(corpus)]
	}
	return store.IngestAll(tiled)
}

// buildFixture runs the three in-process set-up stages under r's stage
// timer: corpus generation, predicate install, store ingest.
func buildFixture(r *run, dir string) (*fixture, error) {
	wl := r.wl
	fx := &fixture{storeDir: filepath.Join(dir, "store")}
	var corpus, pool []*img.Image
	if err := r.stage("synth.corpus_gen_s", func() (err error) {
		corpus, pool, err = generateCorpus(wl, r.seed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	if err := r.stage("core.install_s", func() error {
		for _, p := range wl.preds {
			zd := filepath.Join(dir, "zoo-"+p)
			if err := installZoo(zd, p, wl.trainN); err != nil {
				return err
			}
			fx.zooDirs = append(fx.zooDirs, zd)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("installing predicates: %w", err)
	}
	if err := r.stage("repstore.ingest_s", func() error {
		return ingestStore(fx.storeDir, corpus, wl.rows, wl.storeReps)
	}); err != nil {
		return nil, fmt.Errorf("ingesting store: %w", err)
	}
	for _, im := range pool {
		var buf bytes.Buffer
		if err := img.Encode(&buf, im); err != nil {
			return nil, err
		}
		fx.pool = append(fx.pool, buf.Bytes())
	}
	return fx, nil
}
