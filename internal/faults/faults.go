// Package faults is a process-global fault-injection registry: a fixed set
// of named failure points compiled into the serving path, armed per-test (or
// via `tahoma serve -fault` for manual chaos runs) and dormant otherwise.
//
// Each instrumented call site asks the registry whether its point is armed
// and, when it is, receives the configured behaviour — an injected error, a
// panic, or a delay. The disarmed fast path is a single atomic load, so the
// hooks cost nothing in production.
//
// The chaos suite (internal/vdb's fault tests) iterates every registered
// point and asserts the system's contract under it: a typed error or a
// documented graceful degradation, never a process exit, a hang, or silently
// wrong labels.
package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The registered failure points. Parse rejects anything else, so a typo in a
// test or -fault flag fails loudly instead of silently injecting nothing.
const (
	// StoreDecode fails source-image reads from the representation store —
	// the "disk ate a frame" case. Contract: the query fails with a typed
	// error naming the row; the process and every other query are unharmed.
	StoreDecode = "store.decode"
	// StoreRepRead fails pre-materialized representation reads. Contract:
	// the engines degrade to plain inference (decode + transform) for the
	// affected frames instead of failing the query.
	StoreRepRead = "store.rep-read"
	// StoreRepSlow delays representation reads without failing them — the
	// wedged-disk case deadlines exist for. Contract: a deadlined query
	// cancels cleanly within ~2x its budget.
	StoreRepSlow = "store.rep-slow"
	// ExecWorkerPanic panics inside an execution-engine worker mid-batch.
	// Contract: the panic is contained to the run (a failed report with the
	// panic value and stack), pooled buffers are returned, and the engine
	// stays usable.
	ExecWorkerPanic = "exec.worker-panic"
	// FSWriteError fails a durability-layer file write (WAL frame, checkpoint
	// temp file, repstore manifest, zoo file). Contract: the write path
	// reports a typed error; on the WAL it fail-stops further journaled
	// writes rather than silently losing acknowledged ones.
	FSWriteError = "fs.write-error"
	// FSShortWrite writes only a prefix of a durability-layer record to disk
	// before failing — the torn-frame case power loss produces. Contract: the
	// recovering reader truncates at the torn frame and recovery yields a
	// clean prefix of committed records.
	FSShortWrite = "fs.short-write"
	// FSSyncError fails an fsync in the durability layer: the journal's, a
	// data file's, or the one wal.WriteFile issues for the checkpoint, the
	// repstore manifest and the zoo file. Contract: the commit reports an
	// error (the write was never acknowledged as durable), and a replaced
	// file keeps its old bytes.
	FSSyncError = "fs.sync-error"
	// FSCrashBeforeSync kills the process (os.Exit at the call site) after a
	// durability-layer write is buffered but before it is fsynced — the
	// strictest crash point: the record may or may not reach disk, entirely
	// or torn. Contract: restart recovers a clean prefix of committed writes.
	FSCrashBeforeSync = "fs.crash-before-sync"
	// FSCrashAfterSync kills the process immediately after an fsync returns.
	// Contract: restart recovers everything up to and including that commit.
	FSCrashAfterSync = "fs.crash-after-sync"
)

// Points lists every registered failure point, sorted.
func Points() []string {
	pts := []string{
		StoreDecode, StoreRepRead, StoreRepSlow, ExecWorkerPanic,
		FSWriteError, FSShortWrite, FSSyncError, FSCrashBeforeSync, FSCrashAfterSync,
	}
	sort.Strings(pts)
	return pts
}

func known(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// Spec configures one armed point.
type Spec struct {
	// Err is the error Fire returns (nil selects a generic injected-fault
	// error). Ignored when Panic is set.
	Err error
	// Panic makes Fire panic with a descriptive value instead of returning
	// an error.
	Panic bool
	// Delay makes Fire sleep before returning. With no Err and no Panic the
	// point is a pure slowdown: Fire sleeps and returns nil.
	Delay time.Duration
	// Times bounds how often the point fires (0 = every hit). After Times
	// fires the point disarms itself.
	Times int
	// Skip lets the first Skip hits pass untouched: the point fires on hit
	// Skip+1. Crash-point enumeration counts a clean run's hits (see Hits)
	// and then fails each one in turn.
	Skip int
}

type armedPoint struct {
	spec Spec
	hits int64
}

var (
	mu     sync.Mutex
	points map[string]*armedPoint
	// armed is the fast-path gate: the number of currently armed points.
	// Fire loads it first and returns immediately when zero, so the
	// instrumented call sites are free in production.
	armed atomic.Int64
)

// Enable arms a point. Unknown names are an error so tests cannot silently
// misspell a point into a no-op.
func Enable(name string, spec Spec) error {
	if !known(name) {
		return fmt.Errorf("faults: unknown point %q (have %s)", name, strings.Join(Points(), ", "))
	}
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*armedPoint)
	}
	if _, dup := points[name]; !dup {
		armed.Add(1)
	}
	points[name] = &armedPoint{spec: spec}
	return nil
}

// Disable disarms a point (no-op when not armed).
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armed.Add(-1)
	}
}

// Reset disarms every point — test cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int64(len(points)))
	points = nil
}

// Active lists the currently armed points, sorted.
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Hits reports how many times the call sites of an armed point have been
// reached since it was armed, skipped hits included (0 when not armed). Armed
// with a Skip no run reaches, a point counts its hits without ever firing.
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// take consumes one hit of an armed point, disarming it when its Times
// budget runs out. Returns the spec and whether the point fired.
func take(name string) (Spec, bool) {
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return Spec{}, false
	}
	p.hits++
	fired := p.hits - int64(p.spec.Skip)
	if fired <= 0 {
		return Spec{}, false
	}
	if p.spec.Times > 0 && fired >= int64(p.spec.Times) {
		delete(points, name)
		armed.Add(-1)
	}
	return p.spec, true
}

// Fire is the instrumented call site's hook: when the named point is armed
// it applies the configured behaviour — sleep Delay, then panic (Panic) or
// return the injected error. Disarmed (the production case) it returns nil
// after one atomic load.
func Fire(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	spec, ok := take(name)
	if !ok {
		return nil
	}
	if spec.Delay > 0 {
		time.Sleep(spec.Delay)
	}
	if spec.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s", name))
	}
	if spec.Err != nil {
		return spec.Err
	}
	if spec.Delay > 0 {
		// A pure-delay spec slows the point down without failing it.
		return nil
	}
	return fmt.Errorf("faults: injected fault at %s", name)
}

// Firing reports whether the named point fired, without producing an error —
// for call sites whose failure mode is behavioural (a torn write) rather
// than an error return. Consumes a hit like Fire.
func Firing(name string) bool {
	if armed.Load() == 0 {
		return false
	}
	spec, ok := take(name)
	if !ok {
		return false
	}
	if spec.Delay > 0 {
		time.Sleep(spec.Delay)
	}
	return true
}

// Parse arms points from a -fault flag value: comma-separated
// name=mode entries where mode is "error", "panic" or "slow:<duration>"
// (e.g. "store.rep-read=error,store.rep-slow=slow:50ms"). A bare name means
// "error". Parse arms as it goes and reports the first bad entry.
func Parse(flagValue string) error {
	for _, entry := range strings.Split(flagValue, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, mode, _ := strings.Cut(entry, "=")
		spec := Spec{}
		switch {
		case mode == "" || mode == "error":
		case mode == "panic":
			spec.Panic = true
		case strings.HasPrefix(mode, "slow:"):
			d, err := time.ParseDuration(strings.TrimPrefix(mode, "slow:"))
			if err != nil {
				return fmt.Errorf("faults: bad delay in %q: %w", entry, err)
			}
			spec.Delay = d
		default:
			return fmt.Errorf("faults: bad mode %q in %q (error|panic|slow:<duration>)", mode, entry)
		}
		if err := Enable(name, spec); err != nil {
			return err
		}
	}
	return nil
}
