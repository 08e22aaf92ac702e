// Command tahoma-bench regenerates the paper's evaluation: every table and
// figure of Section VII, at a configurable scale.
//
// Usage:
//
//	tahoma-bench [-scale quick|default|test] [-exp all|tab2|fig4|fig5|fig6|fig7|fig8|fig9|tab3|fig10|fig11] [-out file]
//
// The default scale trains the full 4-size × 5-color × 8-architecture grid
// for all ten predicates (minutes of CPU time); -scale quick runs three
// predicates on a reduced grid; -scale test is the tiny grid the unit tests
// use (seconds). Performance is measured by the scenario benchmark under
// bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"tahoma/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tahoma-bench: ")

	scale := flag.String("scale", "quick", "experiment scale: test, quick or default")
	exp := flag.String("exp", "all", "experiment: all, tab2, fig4, fig5, fig6, fig7, fig8, fig9, tab3, fig10, fig11")
	out := flag.String("out", "", "write results to this file as well as stdout")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	var cfg experiments.Config
	switch *scale {
	case "test":
		cfg = experiments.TestConfig()
	case "quick":
		cfg = experiments.QuickConfig()
	case "default":
		cfg = experiments.DefaultConfig()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	cfg.Workers = *workers

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "tahoma-bench scale=%s predicates=%v grid sizes=%v\n",
		*scale, cfg.Predicates, cfg.Core.Sizes)
	start := time.Now()
	suite, err := experiments.NewSuite(cfg, func(done, total int, pred string) {
		log.Printf("initialized %d/%d (%s)", done, total, pred)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "system initialization: %s for %d predicates\n",
		suite.InitDur.Round(time.Millisecond), len(suite.Systems))

	run := func(name string, fn func(io.Writer) error) {
		if *exp != "all" && *exp != name {
			return
		}
		t0 := time.Now()
		if err := fn(w); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "[%s completed in %s]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("tab2", func(w io.Writer) error { suite.TableII(w); return nil })
	run("fig4", func(w io.Writer) error { _, err := suite.Figure4(w); return err })
	run("fig5", func(w io.Writer) error { _, err := suite.Figure5(w); return err })
	run("fig6", func(w io.Writer) error { _, err := suite.Figure6(w); return err })
	run("fig7", func(w io.Writer) error { _, err := suite.Figure7(w); return err })
	run("fig8", func(w io.Writer) error { _, err := suite.Figure8(w); return err })
	run("fig9", func(w io.Writer) error { _, err := suite.Figure9(w); return err })
	run("tab3", func(w io.Writer) error { _, err := suite.TableIII(w); return err })
	run("fig10", func(w io.Writer) error { _, err := suite.Figure10(w); return err })
	run("fig11", func(w io.Writer) error { _, err := suite.Figure11(w); return err })

	fmt.Fprintf(w, "\ntotal: %s\n", time.Since(start).Round(time.Millisecond))
}
