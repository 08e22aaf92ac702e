package e2e

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// sharedFx is the one trained fixture every test in the package shares —
// training is the expensive step, and the artifacts are read-only (servers
// get private store copies).
var sharedFx struct {
	once sync.Once
	dir  string
	fx   *Fixture
	err  error
}

func sharedFixture(t *testing.T) *Fixture {
	t.Helper()
	sharedFx.once.Do(func() {
		sharedFx.dir, sharedFx.err = os.MkdirTemp("", "tahoma-e2e-fx")
		if sharedFx.err != nil {
			return
		}
		sharedFx.fx, sharedFx.err = BuildFixture(sharedFx.dir)
	})
	if sharedFx.err != nil {
		t.Fatalf("building fixture: %v", sharedFx.err)
	}
	return sharedFx.fx
}

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedFx.dir != "" {
		os.RemoveAll(sharedFx.dir)
	}
	os.Exit(code)
}

// loadCommittedTrace reads a mix's committed trace file — the replay's
// source of truth (TestTracesCommitted keeps the generator and the files in
// sync).
func loadCommittedTrace(t *testing.T, mix string) *Trace {
	t.Helper()
	tr, err := LoadTrace(filepath.Join("testdata", "traces", mix+".json"))
	if err != nil {
		t.Fatalf("%v (run `go test ./e2e -run TestTracesCommitted -update` to regenerate)", err)
	}
	return tr
}

// TestScenarioMixes is the traffic-mix matrix: every committed trace is
// replayed concurrently against live `tahoma serve` subprocesses and
// byte-compared, op for op, against the serial in-process reference replay.
//
// In -short mode only the Short-marked mixes run, on a single process. The
// full run replays every mix and gives query-only mixes a two-process
// cluster, so round-robined traffic must agree across processes too.
func TestScenarioMixes(t *testing.T) {
	fx := sharedFixture(t)
	for _, mix := range []string{"burst", "scan", "ingest_query", "repeat", "faults"} {
		tr := loadCommittedTrace(t, mix)
		if testing.Short() && !tr.Short {
			continue
		}
		t.Run(mix, func(t *testing.T) {
			procs := 1
			if !testing.Short() && tr.QueryOnly() {
				procs = 2
			}
			cl := StartCluster(t, fx, procs, ServerOptions{
				Fault:     tr.Fault,
				ServeReps: tr.ServeReps,
			})

			ref, err := NewReference(fx, false)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			want, err := ref.Replay(tr)
			if err != nil {
				t.Fatalf("reference replay: %v", err)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			rep, err := Replay(ctx, cl.Clients(), tr, fx)
			if err != nil {
				WriteFailureArtifacts(t, mix, tr, rep, want, cl)
				t.Fatalf("replay: %v", err)
			}

			mismatches := 0
			for i, r := range rep.Results {
				if !bytes.Equal(r.Canon, want[i]) {
					mismatches++
					if mismatches <= 3 {
						t.Errorf("op %d (%s) diverged from reference\n got: %s\nwant: %s",
							i, describeOp(tr.Ops[i]), r.Canon, want[i])
					}
				}
			}
			if mismatches > 0 {
				WriteFailureArtifacts(t, mix, tr, rep, want, cl)
				t.Fatalf("%d/%d ops diverged from the serial reference", mismatches, len(tr.Ops))
			}

			if tr.ExpectBitmap && rep.Bitmap == 0 {
				t.Errorf("expected at least one bitmap-served response; got none (materialization never engaged)")
			}
			if tr.ExpectRepFallbacks && rep.RepFallbacks == 0 {
				t.Errorf("expected rep-read fallbacks under fault %q; got none (fault never fired)", tr.Fault)
			}

			stats, err := cl.Stats()
			if err != nil {
				t.Fatalf("%v", err)
			}
			for p, st := range stats {
				if st.Errors != 0 || st.Panics != 0 || st.Rejected != 0 {
					t.Errorf("proc %d: errors=%d panics=%d rejected=%d, want all zero",
						p, st.Errors, st.Panics, st.Rejected)
				}
			}
			if t.Failed() {
				WriteFailureArtifacts(t, mix, tr, rep, want, cl)
			}
			t.Logf("%s: %d ops, %d proc(s), qps=%.1f client p50=%.1fms p99=%.1fms bitmap=%d fallbacks=%d",
				mix, len(tr.Ops), procs, rep.QPS, rep.ClientP50MS, rep.ClientP99MS, rep.Bitmap, rep.RepFallbacks)
		})
	}
}

func describeOp(op Op) string {
	if op.Kind == "ingest" {
		return fmt.Sprintf("ingest %v", op.IDs)
	}
	return op.SQL
}
