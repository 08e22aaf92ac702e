package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"tahoma/internal/server"
)

// fleetBaseID keeps fleet frame IDs disjoint from both the fixture corpus
// (ts < FixtureRows) and the ingest mixes (ingestBaseID); `ts >= 10000` pins
// a query to fleet rows only.
const fleetBaseID = 10000

const fleetStandingSQL = "SELECT id FROM images WHERE ts >= 10000 AND contains_object('cloak')"

// TestCameraFleet is the paper's motivating deployment, live: N concurrent
// camera streams append frames through the ingest/trigger path of one real
// `tahoma serve` process (durable, background analyzer on) while standing
// queries consume NDJSON streaming responses. It asserts that
//
//   - every acknowledged frame is queryable once the streams drain,
//   - trigger-computed labels are bit-identical to an offline reference
//     replay of the same frames,
//   - each standing query's view only ever grows (the corpus is
//     append-only and labels are deterministic), and never shows a frame
//     the reference rejects,
//   - the process stays healthy under the load: zero errors / panics /
//     shed requests, checkpointer keeping up,
//   - teardown is clean — graceful exit 0 and zero leaked goroutines
//     (leakcheck wraps the whole cluster).
func TestCameraFleet(t *testing.T) {
	fx := sharedFixture(t)
	streams, frames := 8, 10
	if testing.Short() {
		streams, frames = 4, 5
	}

	cl := StartCluster(t, fx, 1, ServerOptions{
		Trigger:         true,
		Durable:         true,
		CheckpointEvery: 2 * time.Second,
		Materialize:     "bg",
		MaxQueue:        256,
	})
	c := cl.Clients()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The offline reference: the same frames through the same trigger path,
	// serially. Labels depend only on the frame, so append order across
	// streams cannot change the positive set.
	ref, err := NewReference(fx, true)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	var allIDs []int64
	for s := 0; s < streams; s++ {
		for f := 0; f < frames; f++ {
			allIDs = append(allIDs, fleetFrameID(s, f))
		}
	}
	sort.Slice(allIDs, func(i, j int) bool { return allIDs[i] < allIDs[j] })
	srcs := make([]int, len(allIDs))
	for i, id := range allIDs {
		srcs[i] = fleetFrameSrc(id, fx.Rows)
	}
	if _, err := ref.Append(allIDs, srcs, "fleet", "cam-fleet"); err != nil {
		t.Fatalf("reference append: %v", err)
	}
	refPositive, err := queryIDSet(ref, fleetStandingSQL)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}

	// Standing queries: consumers poll the NDJSON stream while the fleet
	// ingests, checking monotonicity and containment on every poll.
	stop := make(chan struct{})
	var consumers sync.WaitGroup
	var consErrMu sync.Mutex
	var consErrs []string
	consumerFail := func(format string, args ...any) {
		consErrMu.Lock()
		consErrs = append(consErrs, fmt.Sprintf(format, args...))
		consErrMu.Unlock()
	}
	for g := 0; g < 2; g++ {
		consumers.Add(1)
		go func(g int) {
			defer consumers.Done()
			prev := map[int64]bool{}
			for polls := 0; ; polls++ {
				ids, err := streamIDSet(ctx, c, fleetStandingSQL)
				if err != nil {
					consumerFail("consumer %d poll %d: %v", g, polls, err)
					return
				}
				for id := range prev {
					if !ids[id] {
						consumerFail("consumer %d poll %d: frame %d vanished from the standing view", g, polls, id)
						return
					}
				}
				for id := range ids {
					if !refPositive[id] {
						consumerFail("consumer %d poll %d: frame %d visible but the reference rejects it", g, polls, id)
						return
					}
				}
				prev = ids
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}(g)
	}

	// The fleet: one goroutine per camera, appending frames one at a time
	// through POST /ingest (the trigger classifies each at append time).
	var fleet sync.WaitGroup
	var fleetErrMu sync.Mutex
	var fleetErrs []string
	acked := make([]int64, 0, streams*frames)
	var ackedMu sync.Mutex
	for s := 0; s < streams; s++ {
		fleet.Add(1)
		go func(s int) {
			defer fleet.Done()
			for f := 0; f < frames; f++ {
				id := fleetFrameID(s, f)
				row := server.IngestRow{
					ID: id, TS: id, Location: "fleet", Camera: fmt.Sprintf("cam-fleet-%d", s),
					Image: fx.Encoded[fleetFrameSrc(id, fx.Rows)],
				}
				resp, err := c.IngestCtx(ctx, []server.IngestRow{row})
				if err != nil {
					fleetErrMu.Lock()
					fleetErrs = append(fleetErrs, fmt.Sprintf("stream %d frame %d: %v", s, f, err))
					fleetErrMu.Unlock()
					return
				}
				if resp.Rows != 1 {
					fleetErrMu.Lock()
					fleetErrs = append(fleetErrs, fmt.Sprintf("stream %d frame %d: acked %d rows", s, f, resp.Rows))
					fleetErrMu.Unlock()
					return
				}
				ackedMu.Lock()
				acked = append(acked, id)
				ackedMu.Unlock()
			}
		}(s)
	}
	fleet.Wait()
	close(stop)
	consumers.Wait()
	for _, e := range fleetErrs {
		t.Errorf("%s", e)
	}
	for _, e := range consErrs {
		t.Errorf("%s", e)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(acked) != streams*frames {
		t.Fatalf("acked %d frames, want %d", len(acked), streams*frames)
	}

	// Every acknowledged frame is queryable.
	visible, err := streamIDSet(ctx, c, "SELECT id FROM images WHERE ts >= 10000")
	if err != nil {
		t.Fatalf("%v", err)
	}
	for _, id := range acked {
		if !visible[id] {
			t.Errorf("acked frame %d is not queryable", id)
		}
	}
	if len(visible) != len(acked) {
		t.Errorf("fleet rows visible: %d, want %d", len(visible), len(acked))
	}

	// Trigger labels match the offline reference, exactly.
	livePositive, err := streamIDSet(ctx, c, fleetStandingSQL)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := sameIDSet(livePositive, refPositive); err != nil {
		t.Errorf("trigger labels diverge from the offline reference: %v", err)
	}
	if len(refPositive) == 0 || len(refPositive) == len(allIDs) {
		t.Errorf("degenerate fleet: %d/%d frames positive — the fixture should mix labels", len(refPositive), len(allIDs))
	}

	// Health: the process absorbed the fleet without shedding or erroring,
	// the checkpointer kept up, and the analyzer is running.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("%v", err)
	}
	if st.IngestedRows != int64(streams*frames) {
		t.Errorf("stats ingested_rows=%d, want %d", st.IngestedRows, streams*frames)
	}
	if st.Errors != 0 || st.Panics != 0 || st.Rejected != 0 {
		t.Errorf("errors=%d panics=%d rejected=%d, want all zero", st.Errors, st.Panics, st.Rejected)
	}
	if !st.Durability.Enabled {
		t.Errorf("durability not enabled")
	}
	if st.Durability.CheckpointAgeS > 30 {
		t.Errorf("checkpointer fell behind: last checkpoint %.1fs ago", st.Durability.CheckpointAgeS)
	}
	if st.Materialization.Mode != "bg" {
		t.Errorf("materialization mode %q, want bg", st.Materialization.Mode)
	}
	t.Logf("fleet: %d streams x %d frames, %d positive, queries=%d udf_calls=%d",
		streams, frames, len(refPositive), st.Queries, st.UDFCalls)
}

func fleetFrameID(stream, frame int) int64 {
	return fleetBaseID + int64(stream)*100 + int64(frame)
}

// fleetFrameSrc picks the fixture source image for a frame — a fixed mix of
// positives and negatives spread across streams.
func fleetFrameSrc(id int64, rows int) int {
	return int(id*13) % rows
}

// streamIDSet consumes a one-column NDJSON streaming response into an ID set.
func streamIDSet(ctx context.Context, c *server.Client, sql string) (map[int64]bool, error) {
	ids := map[int64]bool{}
	_, err := c.QueryRowsCtx(ctx, sql, server.QueryOptions{}, func(row []any) error {
		if len(row) != 1 {
			return fmt.Errorf("want 1 column, got %d", len(row))
		}
		n, ok := row[0].(json.Number)
		if !ok {
			return fmt.Errorf("want a numeric id, got %T", row[0])
		}
		id, err := n.Int64()
		if err != nil {
			return err
		}
		ids[id] = true
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return ids, nil
}

// queryIDSet runs a one-column query on the in-process reference.
func queryIDSet(r *Reference, sql string) (map[int64]bool, error) {
	res, err := r.DB.Query(sql, referenceConstraints())
	if err != nil {
		return nil, err
	}
	ids := map[int64]bool{}
	for _, row := range res.Rows {
		if len(row) != 1 || row[0].IsString {
			return nil, fmt.Errorf("%s: want one numeric column", sql)
		}
		ids[row[0].Int] = true
	}
	return ids, nil
}

func sameIDSet(got, want map[int64]bool) error {
	var missing, extra []int64
	for id := range want {
		if !got[id] {
			missing = append(missing, id)
		}
	}
	for id := range got {
		if !want[id] {
			extra = append(extra, id)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		return fmt.Errorf("missing %v, extra %v", missing, extra)
	}
	return nil
}
