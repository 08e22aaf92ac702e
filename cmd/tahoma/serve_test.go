package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tahoma/e2e"
	"tahoma/internal/server"
)

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
