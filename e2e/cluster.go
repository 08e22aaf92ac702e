package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tahoma/internal/leakcheck"
	"tahoma/internal/server"
)

// TB is the subset of *testing.T the harness needs — an interface so the
// non-test half of the package never imports testing.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Cleanup(func())
	Failed() bool
}

var sharedBin struct {
	once sync.Once
	err  error
	path string
}

// BuildBinary compiles the real `tahoma` CLI once per test run. Everything
// the harness asserts runs against this binary — real flags, real signals,
// real fsyncs — not an in-process stand-in.
func BuildBinary(t TB) string {
	t.Helper()
	sharedBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "tahoma-e2e-bin")
		if err != nil {
			sharedBin.err = err
			return
		}
		sharedBin.path = filepath.Join(dir, "tahoma")
		out, err := exec.Command("go", "build", "-o", sharedBin.path, "tahoma/cmd/tahoma").CombinedOutput()
		if err != nil {
			sharedBin.err = fmt.Errorf("go build tahoma/cmd/tahoma: %v\n%s", err, out)
		}
	})
	if sharedBin.err != nil {
		t.Fatalf("%v", sharedBin.err)
	}
	return sharedBin.path
}

// Proc is one running `tahoma serve` subprocess: its base URL (parsed from
// the "listening on http://" stderr line), a retry-free client, and the
// captured log for failure dumps.
type Proc struct {
	Base   string
	Client *server.Client

	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been reaped
	exitErr error         // cmd.Wait's result; valid after exited closes

	mu  sync.Mutex
	log []string
}

// Wait blocks until the process exits and returns its Wait error; safe to
// call from multiple places.
func (p *Proc) Wait() error {
	<-p.exited
	return p.exitErr
}

func (p *Proc) appendLog(line string) {
	p.mu.Lock()
	if len(p.log) < 500 {
		p.log = append(p.log, line)
	}
	p.mu.Unlock()
}

// Dump returns the captured stderr, for failure messages and artifacts.
func (p *Proc) Dump() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

// Kill delivers SIGKILL and reaps; the process may already be dead (a
// self-killed crash point, a finished graceful stop), which is fine.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill()
	p.Wait()
}

// GracefulStop delivers SIGTERM and requires a clean exit 0 within timeout —
// the drain + final-checkpoint path, not a crash.
func (p *Proc) GracefulStop(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
		if p.exitErr != nil {
			return fmt.Errorf("SIGTERM exit: %v\n%s", p.exitErr, p.Dump())
		}
		return nil
	case <-time.After(timeout):
		p.Kill()
		return fmt.Errorf("graceful shutdown hung (killed after %s)\n%s", timeout, p.Dump())
	}
}

// defaultClientOptions are the harness's client settings: retries off so
// every server-side failure surfaces (a silent retry would fold server
// pathologies into fake latency), generous per-attempt timeout so a slow CI
// runner does not masquerade as a hang.
var defaultClientOptions = server.ClientOptions{
	MaxRetries: -1, ConnectTimeout: 2 * time.Second, RequestTimeout: 60 * time.Second,
}

// StartProc launches the binary with args and waits for the listener line —
// the moment /readyz is pollable, which may be well before the server is
// ready. A SIGKILL cleanup is registered as the safety net; orderly
// teardowns (GracefulStop) run first and make it a no-op.
func StartProc(t TB, bin string, args []string) *Proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	p := &Proc{cmd: cmd, exited: make(chan struct{})}
	t.Cleanup(p.Kill)
	baseCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.appendLog(line)
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case baseCh <- addr:
				default:
				}
			}
		}
		p.exitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case base := <-baseCh:
		p.Base = base
		p.Client = server.NewClientWith(base, defaultClientOptions)
	case <-p.exited:
		t.Fatalf("serve exited before listening:\n%s", p.Dump())
	case <-time.After(60 * time.Second):
		t.Fatalf("serve never printed its listener:\n%s", p.Dump())
	}
	return p
}

// ServerOptions shape one serving process's arms for a scenario.
type ServerOptions struct {
	// Fault arms fault-injection points (`serve -fault`).
	Fault string
	// ServeReps serves pre-materialized representations from the store.
	ServeReps bool
	// Trigger classifies ingested rows at append time.
	Trigger bool
	// Durable gives the process a write-ahead journal + checkpoints
	// (`-wal-dir`), with CheckpointEvery bounding replay (0 = serve default).
	Durable         bool
	CheckpointEvery time.Duration
	// Materialize overrides `-materialize` ("" = serve default "on").
	Materialize string
	// MaxQueue overrides `-max-queue` (0 = serve default). Fleet scenarios
	// raise it so N streams + standing queries never shed on a 1-core runner.
	MaxQueue int
	// ExtraArgs are appended verbatim.
	ExtraArgs []string
}

// Cluster is one or more serving processes over identical copies of the
// fixture corpus — "one logical deployment" as far as a trace replay is
// concerned, with responses round-robined across the processes.
type Cluster struct {
	Procs []*Proc
	t     TB
}

// StartCluster copies the fixture store per process (ingest and durability
// mutate it), launches n `tahoma serve` subprocesses, and blocks on the
// /readyz barrier for each. Teardown is graceful (SIGTERM, exit 0 required)
// and leak-checked: leakcheck is registered before any process starts, so
// its cleanup runs after every teardown and catches any goroutine the
// harness machinery leaked.
func StartCluster(t TB, fx *Fixture, n int, o ServerOptions) *Cluster {
	t.Helper()
	leakcheck.Check(t)
	bin := BuildBinary(t)
	cl := &Cluster{t: t}
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "tahoma-e2e-proc")
		if err != nil {
			t.Fatalf("%v", err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		storeDir := filepath.Join(dir, "store")
		if err := copyDir(fx.StoreDir, storeDir); err != nil {
			t.Fatalf("copying store: %v", err)
		}
		args := []string{"serve",
			"-addr", "127.0.0.1:0",
			"-zoo", fx.ZooDir,
			"-corpus", storeDir,
			"-scenario", "camera",
		}
		if o.Fault != "" {
			args = append(args, "-fault", o.Fault)
		}
		if o.ServeReps {
			args = append(args, "-serve-reps")
		}
		if o.Trigger {
			args = append(args, "-trigger")
		}
		if o.Durable {
			args = append(args, "-wal-dir", filepath.Join(dir, "wal"))
			if o.CheckpointEvery > 0 {
				args = append(args, "-checkpoint-every", o.CheckpointEvery.String())
			}
		}
		if o.Materialize != "" {
			args = append(args, "-materialize", o.Materialize)
		}
		if o.MaxQueue != 0 {
			args = append(args, "-max-queue", strconv.Itoa(o.MaxQueue))
		}
		args = append(args, o.ExtraArgs...)
		cl.Procs = append(cl.Procs, StartProc(t, bin, args))
	}
	// Graceful teardown, registered after the procs' kill cleanups so it
	// runs before them (LIFO): every process must drain and exit 0.
	t.Cleanup(func() {
		for i, p := range cl.Procs {
			if err := p.GracefulStop(60 * time.Second); err != nil {
				t.Errorf("proc %d: %v", i, err)
			}
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i, p := range cl.Procs {
		if err := p.Client.WaitReady(ctx); err != nil {
			t.Fatalf("proc %d never became ready: %v\n%s", i, err, p.Dump())
		}
	}
	return cl
}

// Clients returns the per-process clients, in process order.
func (cl *Cluster) Clients() []*server.Client {
	out := make([]*server.Client, len(cl.Procs))
	for i, p := range cl.Procs {
		out[i] = p.Client
	}
	return out
}

// Stats fetches /stats from every process.
func (cl *Cluster) Stats() ([]*server.StatsResponse, error) {
	out := make([]*server.StatsResponse, len(cl.Procs))
	for i, p := range cl.Procs {
		st, err := p.Client.Stats()
		if err != nil {
			return nil, fmt.Errorf("proc %d stats: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// CopyDir copies a flat artifact directory (a fixture store, a journal) into
// dst, failing t on error — for tests that manage their own process layout
// on top of StartProc.
func CopyDir(t TB, src, dst string) {
	t.Helper()
	if err := copyDir(src, dst); err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ArtifactsEnv names the directory failure artifacts are written into (the
// CI job uploads it); unset, artifacts go to a fresh temp directory whose
// path is logged.
const ArtifactsEnv = "TAHOMA_E2E_ARTIFACTS"

// WriteFailureArtifacts dumps everything needed to replay a failure offline:
// the trace, canonical got/want bytes per mismatched op, each process's
// /stats and captured stderr. Best-effort — artifact errors are logged, the
// test failure stands on its own.
func WriteFailureArtifacts(t TB, name string, tr *Trace, rep *ReplayReport, want [][]byte, cl *Cluster) {
	t.Helper()
	root := os.Getenv(ArtifactsEnv)
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "tahoma-e2e-artifacts")
		if err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
	}
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifacts: %v", err)
		return
	}
	if blob, err := MarshalTrace(tr); err == nil {
		writeArtifact(t, dir, "trace.json", blob)
	}
	if rep != nil {
		for i, r := range rep.Results {
			if want != nil && i < len(want) && string(want[i]) == string(r.Canon) {
				continue
			}
			writeArtifact(t, dir, fmt.Sprintf("op_%03d_got.json", i), r.Canon)
			if want != nil && i < len(want) {
				writeArtifact(t, dir, fmt.Sprintf("op_%03d_want.json", i), want[i])
			}
		}
	}
	if cl != nil {
		for i, p := range cl.Procs {
			if st, err := p.Client.Stats(); err == nil {
				if blob, err := json.MarshalIndent(st, "", "  "); err == nil {
					writeArtifact(t, dir, fmt.Sprintf("stats_%d.json", i), blob)
				}
			}
			writeArtifact(t, dir, fmt.Sprintf("serve_%d.log", i), []byte(p.Dump()))
		}
	}
	t.Logf("failure artifacts written to %s", dir)
}

func writeArtifact(t TB, dir, name string, blob []byte) {
	if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
		t.Logf("artifacts: %s: %v", name, err)
	}
}
