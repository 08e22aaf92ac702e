package e2e

import (
	"fmt"

	"tahoma/internal/core"
	"tahoma/internal/img"
	"tahoma/internal/scenario"
	"tahoma/internal/server"
	"tahoma/internal/vdb"
)

// Reference is the serial in-process replica of a serving process: the same
// corpus, the same predicate, the same cascade constraints — but no HTTP, no
// concurrency, no journal, no caches to warm. Replaying a trace through it
// yields the canonical bytes every live response must reproduce.
type Reference struct {
	DB *vdb.DB
	fx *Fixture
}

// NewReference builds the reference DB over the fixture corpus, mirroring
// the metadata convention `tahoma serve` applies to a store corpus
// (ID = row, Location "corpus", Camera "cam-0", TS = row). With trigger set
// it classifies ingested rows at append time like `serve -trigger`.
func NewReference(fx *Fixture, trigger bool) (*Reference, error) {
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		return nil, err
	}
	db := vdb.New(cm)
	meta := make([]vdb.Metadata, fx.Rows)
	for i := range meta {
		meta[i] = vdb.Metadata{ID: int64(i), Location: "corpus", Camera: "cam-0", TS: int64(i)}
	}
	if err := db.LoadCorpus(fx.Sources, meta); err != nil {
		return nil, err
	}
	if err := db.InstallPredicate(fx.Category, fx.Sys, 2); err != nil {
		return nil, err
	}
	if trigger {
		db.SetTriggerPolicy(vdb.TriggerPolicy{Enabled: true})
	}
	return &Reference{DB: db, fx: fx}, nil
}

// referenceConstraints are the serving-default query constraints: the
// reference must select the cascade the live server does for a request that
// names no accuracy budget, or the labels could legitimately differ.
func referenceConstraints() core.Constraints {
	return core.Constraints{MaxAccuracyLoss: server.DefaultAccuracyLoss}
}

// Query runs one SQL statement under the serving defaults and returns its
// canonical bytes.
func (r *Reference) Query(sql string) ([]byte, error) {
	res, err := r.DB.Query(sql, referenceConstraints())
	if err != nil {
		return nil, err
	}
	return canonResult(res, false)
}

// Append ingests rows the way a replayed ingest op does: fixture source
// images by index, TS = ID.
func (r *Reference) Append(ids []int64, src []int, location, camera string) ([]byte, error) {
	images := make([]*img.Image, len(ids))
	metas := make([]vdb.Metadata, len(ids))
	for k, id := range ids {
		images[k] = r.fx.Sources[src[k]]
		metas[k] = vdb.Metadata{ID: id, TS: id, Location: location, Camera: camera}
	}
	if _, err := r.DB.Append(images, metas); err != nil {
		return nil, err
	}
	return canonIngest(len(ids))
}

// Replay executes a trace serially, in op order, and returns the canonical
// bytes per op index. Trace authorship guarantees (stable-subset queries
// before the barrier) make this serial order equivalent to every concurrent
// interleaving of the live replay.
func (r *Reference) Replay(tr *Trace) ([][]byte, error) {
	want := make([][]byte, len(tr.Ops))
	for i, op := range tr.Ops {
		var canon []byte
		var err error
		switch op.Kind {
		case "query":
			var res *vdb.Result
			if res, err = r.DB.Query(op.SQL, referenceConstraints()); err == nil {
				canon, err = canonResult(res, op.Sorted)
			}
		case "ingest":
			canon, err = r.Append(op.IDs, op.Src, op.Location, op.Camera)
		default:
			err = fmt.Errorf("op %d: unknown kind %q", i, op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("reference op %d: %w", i, err)
		}
		want[i] = canon
	}
	return want, nil
}

// canonResult canonicalizes an in-process query result to the same bytes
// canonQuery produces for a live HTTP response: int64 cells and JSON-number
// cells serialize identically.
func canonResult(res *vdb.Result, sorted bool) ([]byte, error) {
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			if v.IsString {
				vals[j] = v.Str
			} else {
				vals[j] = v.Int
			}
		}
		rows[i] = vals
	}
	return canonQuery(rows, res.Count, sorted)
}
