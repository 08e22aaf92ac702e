package main

import (
	"context"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tahoma/e2e"
	"tahoma/internal/server"
)

// TestFlagNames pins the flags `serve -h` and `query -h` list, so a new knob
// shows up as a diff here. Every serve flag is set by a benchmark workload,
// the e2e harness or a test; what a cost-only setting would tune — workers,
// admission slots, timeouts, the accuracy default — the program works out or
// fixes itself (GOMAXPROCS, server.MaxWait, server.DefaultAccuracyLoss).
func TestFlagNames(t *testing.T) {
	bin := e2e.BuildBinary(t)
	for cmd, want := range map[string]string{
		"serve": "addr cache-mb checkpoint-every corpus debug-addr fault materialize max-queue scenario serve-reps share-reps-mb store-corpus trigger wal-dir zoo",
		"query": "accuracy-loss cache-mb corpus materialize scenario serve-reps sql zoo",
	} {
		out, err := exec.Command(bin, cmd, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", cmd, err, out)
		}
		var names []string
		for _, line := range strings.Split(string(out), "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				names = append(names, strings.Fields(rest)[0])
			}
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("%s -h lists %d flags:\n  %s\nwant:\n  %s", cmd, len(names), got, want)
		}
	}
}

// TestServeShareRepsMBRemoved: -share-reps-mb stays registered only so the
// command lines that pass 0 keep working. Any other value fails at startup
// and names the removal instead of being silently ignored; 0 serves.
func TestServeShareRepsMBRemoved(t *testing.T) {
	bin := e2e.BuildBinary(t)
	zooDir, fixtureStore := buildCLIFixture(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	e2e.CopyDir(t, fixtureStore, storeDir)
	args := func(mb string) []string {
		return []string{"serve", "-addr", "127.0.0.1:0", "-zoo", zooDir, "-corpus", storeDir, "-share-reps-mb", mb}
	}

	out, err := exec.Command(bin, args("64")...).CombinedOutput()
	if err == nil {
		t.Fatalf("serve -share-reps-mb 64 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "cross-query representation cache was removed") {
		t.Fatalf("serve -share-reps-mb 64 failed without naming the removal:\n%s", out)
	}

	p := e2e.StartProc(t, bin, args("0"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := p.Client.WaitReady(ctx); err != nil {
		t.Fatalf("serve -share-reps-mb 0 never ready: %v\n%s", err, p.Dump())
	}
	resp, err := p.Client.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", server.QueryOptions{})
	if err != nil || len(resp.Rows) != 1 {
		t.Fatalf("query: %+v, %v", resp, err)
	}
	if err := p.GracefulStop(60 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServeMemProfileRate: without -debug-addr nothing can fetch a heap
// profile, so serve stops the runtime's allocation sampling before it opens
// anything; with it, sampling stays at the runtime's default for
// /debug/pprof/heap. Both calls fail on -share-reps-mb after the flags are
// read, so neither starts a server.
func TestServeMemProfileRate(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	const def = 512 * 1024
	for _, c := range []struct {
		debugAddr string
		want      int
	}{{"", 0}, {"127.0.0.1:0", def}} {
		runtime.MemProfileRate = def
		err := cmdServe([]string{"-debug-addr", c.debugAddr, "-zoo", "z", "-corpus", "c", "-share-reps-mb", "1"})
		if err == nil || !strings.Contains(err.Error(), "-share-reps-mb") {
			t.Fatalf("-debug-addr %q: err %v, want the -share-reps-mb refusal", c.debugAddr, err)
		}
		if runtime.MemProfileRate != c.want {
			t.Fatalf("-debug-addr %q: MemProfileRate %d, want %d", c.debugAddr, runtime.MemProfileRate, c.want)
		}
	}
}

// TestCorpusReadThroughCache: every command reads the corpus from the store
// through the record cache. A budget of 0 or less would mean no cache, which
// no longer exists, so serve and query fail at startup naming -cache-mb.
// serve -store-corpus stays registered only so the command lines that pass
// it keep working: such a server starts and answers.
func TestCorpusReadThroughCache(t *testing.T) {
	bin := e2e.BuildBinary(t)
	zooDir, fixtureStore := buildCLIFixture(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	e2e.CopyDir(t, fixtureStore, storeDir)
	serve := func(extra ...string) []string {
		return append([]string{"serve", "-addr", "127.0.0.1:0", "-zoo", zooDir, "-corpus", storeDir}, extra...)
	}

	for _, mb := range []string{"0", "-1"} {
		out, err := exec.Command(bin, serve("-cache-mb", mb)...).CombinedOutput()
		if err == nil {
			t.Fatalf("serve -cache-mb %s exited 0:\n%s", mb, out)
		}
		if !strings.Contains(string(out), "-cache-mb "+mb) {
			t.Fatalf("serve -cache-mb %s failed without naming the flag:\n%s", mb, out)
		}
		err = cmdQuery("query", []string{"-zoo", zooDir, "-corpus", storeDir, "-sql", "SELECT COUNT(*) FROM images", "-cache-mb", mb})
		if err == nil || !strings.Contains(err.Error(), "-cache-mb "+mb) {
			t.Fatalf("query -cache-mb %s: err = %v, want a refusal naming the flag", mb, err)
		}
	}

	p := e2e.StartProc(t, bin, serve("-store-corpus"))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := p.Client.WaitReady(ctx); err != nil {
		t.Fatalf("serve -store-corpus never ready: %v\n%s", err, p.Dump())
	}
	resp, err := p.Client.Query("SELECT COUNT(*) FROM images WHERE contains_object('cloak')", server.QueryOptions{})
	if err != nil || len(resp.Rows) != 1 {
		t.Fatalf("query: %+v, %v", resp, err)
	}
	if err := p.GracefulStop(60 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServeDebugAddr: -debug-addr opens a second listener that serves
// net/http/pprof; the query listener never does.
func TestServeDebugAddr(t *testing.T) {
	bin := e2e.BuildBinary(t)
	zooDir, fixtureStore := buildCLIFixture(t)
	storeDir := filepath.Join(t.TempDir(), "store")
	e2e.CopyDir(t, fixtureStore, storeDir)
	p := e2e.StartProc(t, bin, []string{"serve", "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-zoo", zooDir, "-corpus", storeDir})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := p.Client.WaitReady(ctx); err != nil {
		t.Fatalf("serve -debug-addr never ready: %v\n%s", err, p.Dump())
	}
	// The debug listener binds and logs before the query listener, whose
	// line StartProc waited for.
	const marker = "profiling on "
	log := p.Dump()
	i := strings.Index(log, marker)
	if i < 0 {
		t.Fatalf("no %q line:\n%s", marker, log)
	}
	debug := strings.Fields(log[i+len(marker):])[0] // the debug listener's /debug/pprof/ URL
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(debug + "cmdline"); code != http.StatusOK {
		t.Fatalf("debug listener %scmdline: %d, want 200", debug, code)
	}
	// The heap profile samples at the runtime's default rate: its header
	// names twice the rate, as the C++ heap profiler's format does.
	resp, err := http.Get(debug + "heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	head, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	if err != nil || !strings.Contains(strings.SplitN(string(head), "\n", 2)[0], "@ heap/1048576") {
		t.Fatalf("debug listener heap profile starts %q (%v), want sampling every 512 KiB", head, err)
	}
	if code := get(p.Base + "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("query listener /debug/pprof/: %d, want 404", code)
	}
	if err := p.GracefulStop(60 * time.Second); err != nil {
		t.Fatal(err)
	}
}
