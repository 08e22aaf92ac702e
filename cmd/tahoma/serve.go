package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tahoma/internal/faults"
	"tahoma/internal/server"
	"tahoma/internal/vdb"
)

// cmdServe runs the long-lived concurrent query service: one open DB and an
// HTTP front end with a bounded admission pool. Results are bit-identical to
// one-shot `tahoma query` runs.
//
// Ingested rows are appended to the corpus store. Without -wal-dir the store
// commits each batch itself (data fsync, then manifest) before the 200. With
// -wal-dir the service is durable: every acknowledged ingest is fsynced to a
// write-ahead journal before the 200, a background checkpointer bounds
// replay, and startup recovers checkpoint + journal before /readyz flips to
// 200. The listener binds before recovery — "listening on http://..." on
// stderr marks the moment clients can start polling /readyz — and SIGTERM/
// SIGINT drains in-flight queries, takes a final checkpoint and exits 0.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	zooDirs := fs.String("zoo", "", "model repository directories, comma-separated (required; one predicate each)")
	var corpus corpusFlags
	corpus.register(fs)
	fs.Bool("store-corpus", false, "removed: every corpus is served straight out of the store through the -cache-mb record cache, and without -wal-dir ingested rows are appended to the store; accepted and ignored")
	shareRepsMB := fs.Int("share-reps-mb", 0, "removed: the cross-query representation cache is gone and only 0 is accepted (the one pixel cache is -cache-mb)")
	maxQueue := fs.Int("max-queue", 0, fmt.Sprintf("queries waiting for a worker, of which GOMAXPROCS execute at once (0 = 4x GOMAXPROCS, <0 = no queue); a query that waits %v gets a 503", server.MaxWait))
	fault := fs.String("fault", "", "arm fault-injection points for chaos testing, e.g. 'store.rep-read=error,store.rep-slow=slow:50ms' (see internal/faults)")
	walDir := fs.String("wal-dir", "", "write-ahead journal + checkpoint directory; enables durable ingest and crash recovery (without it each ingested batch is committed to the store before its 200)")
	checkpointEvery := fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval under -wal-dir; bounds journal replay after a crash")
	trigger := fs.Bool("trigger", false, "classify newly ingested rows immediately (ingest-time trigger materialization, most accurate cascade)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof's /debug/pprof/ on this second listen address, never on -addr (empty = off)")
	fs.Parse(args)
	if *debugAddr == "" {
		// Linking net/http/pprof keeps the runtime sampling allocations into
		// a profile nothing can fetch without the debug listener, and the
		// sampler's bucket table is resident memory. With the listener on,
		// /debug/pprof/heap samples at the default rate.
		runtime.MemProfileRate = 0
	}
	if *zooDirs == "" || corpus.dir == "" {
		return fmt.Errorf("serve: -zoo and -corpus are required")
	}
	if *shareRepsMB != 0 {
		return fmt.Errorf("serve: -share-reps-mb %d: the cross-query representation cache was removed; only 0 is accepted (the one pixel cache is -cache-mb)", *shareRepsMB)
	}
	if *fault != "" {
		if err := faults.Parse(*fault); err != nil {
			return fmt.Errorf("serve: -fault: %w", err)
		}
		log.Printf("FAULT INJECTION ARMED: %s (chaos testing only)", *fault)
	}
	db, store, err := corpus.openDB("serve")
	if err != nil {
		return err
	}
	defer store.Close()

	srv := server.New(db, server.Options{
		MaxQueue: *maxQueue,
		// The listener binds before predicate install and crash recovery:
		// the server answers /healthz and /readyz (503) immediately and
		// flips ready only when it can actually serve.
		StartUnready: true,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("serve: -debug-addr: %w", err)
		}
		dsrv := &http.Server{Handler: pprofMux()}
		go func() {
			if err := dsrv.Serve(dln); err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
		defer dsrv.Close()
		log.Printf("profiling on http://%s/debug/pprof/", dln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("listening on http://%s (not ready: recovering)", ln.Addr())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Initialization behind the unready gate: predicates, recovery.
	var stopAnalyzer, stopCheckpointer func()
	initialize := func() error {
		for _, dir := range strings.Split(*zooDirs, ",") {
			dir = strings.TrimSpace(dir)
			if dir == "" {
				continue
			}
			category, err := installPredicate(db, dir)
			if err != nil {
				return err
			}
			log.Printf("installed predicate %q from %s", category, dir)
		}
		if *trigger {
			db.SetTriggerPolicy(vdb.TriggerPolicy{Enabled: true})
		}

		if *walDir != "" {
			rstats, err := db.EnableDurability(vdb.DurabilityOptions{Dir: *walDir})
			if err != nil {
				return fmt.Errorf("serve: recovery: %w", err)
			}
			log.Printf("recovered %d rows in %dms (checkpoint=%v, wal_replayed=%d, wal_truncated_bytes=%d)",
				rstats.Rows, rstats.RecoveryMS, rstats.CheckpointLoaded, rstats.Replayed, rstats.TruncatedBytes)
			stopCheckpointer, err = db.StartCheckpointer(ctx, vdb.CheckpointerOptions{Every: *checkpointEvery},
				func(err error) { log.Printf("checkpoint failed (will retry): %v", err) })
			if err != nil {
				return err
			}
		}

		if mode, _ := vdb.ParseMatMode(corpus.materialize); mode == vdb.MatBg {
			// The analyzer gates on the admission pool: it only classifies
			// when no query is executing or queued, so foreground latency is
			// never spent on pre-materialization.
			var err error
			stopAnalyzer, err = db.StartAnalyzer(ctx, vdb.AnalyzerOptions{Idle: srv.Idle})
			if err != nil {
				return err
			}
			log.Printf("background analyzer on: hot predicates pre-materialize while the admission pool is idle")
		}
		return nil
	}

	// shutdown drains and persists: stop admitting (unready), let in-flight
	// work finish bounded by server.MaxWait, stop the background goroutines,
	// then take the final checkpoint so a restart replays nothing.
	shutdown := func() error {
		srv.SetReady(false)
		shutCtx, cancel := context.WithTimeout(context.Background(), server.MaxWait)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		if stopAnalyzer != nil {
			stopAnalyzer()
		}
		if stopCheckpointer != nil {
			stopCheckpointer()
		}
		if *walDir != "" {
			if cerr := db.CloseDurability(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}

	if err := initialize(); err != nil {
		_ = shutdown()
		return err
	}
	srv.SetReady(true)
	log.Printf("serving %d rows, predicates [%s] on http://%s (POST /query, GET /explain, POST /ingest, GET /stats)",
		db.Count(), strings.Join(db.Predicates(), ", "), ln.Addr())

	select {
	case err := <-done:
		_ = shutdown()
		return err
	case <-ctx.Done():
		log.Printf("shutting down: draining in-flight queries, final checkpoint...")
		err := shutdown()
		if err == nil {
			log.Printf("shutdown complete")
		}
		return err
	}
}

// pprofMux serves net/http/pprof on a mux of its own: the package's init
// registers the same handlers on http.DefaultServeMux, which no listener of
// serve's uses, so the query listener never serves them.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
