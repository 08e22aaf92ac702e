// Command bench is TAHOMA's scenario benchmark: it builds the real `tahoma
// serve` binary, sets up a seeded fixture, replays one of four closed-loop
// workloads against the live server, checks every answer against an
// in-process oracle and prints host-speed-normalized end-to-end metrics (or,
// with -trace 1, per-layer metrics from a traced pass). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		wlName   = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed: corpus pixels, ingest pool, dashboard windows")
		seconds  = flag.Float64("seconds", 10, "reference-host seconds the measured phase lasts")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
		root     = flag.String("root", ".", "repository checkout to build tahoma from")
		aa       = flag.Int("aa", 0, "run every workload this many times (seeds 1..n) and print the A/A spread table")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the span log (JSON lines) here")
		kernel   = flag.Int("kernel", 0, "take this many reference-kernel samples on an idle host and print their spread (how refMS was measured)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}

	if *kernel > 0 {
		cal := newCalibrator(runtime.GOMAXPROCS(0))
		for i := 0; i < *kernel; i++ {
			cal.sample()
			time.Sleep(5 * time.Millisecond)
		}
		fmt.Printf("reference kernel, %d samples on %d CPUs: min %.4f  p10 %.4f  p50 %.4f  p90 %.4f ms (refMS = %v)\n",
			*kernel, len(cal.kernels), quantile(cal.samples, 0), quantile(cal.samples, 0.1), median(cal.samples), quantile(cal.samples, 0.9), refMS)
		return 0
	}

	build := filepath.Join(*root, ".bench_build")
	tmpParent := filepath.Join(build, "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		fatalf("%v", err)
	}
	bin := filepath.Join(build, "tahoma")
	if err := buildServer(*root, bin); err != nil {
		fatalf("%v", err)
	}
	tmp, err := os.MkdirTemp(tmpParent, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)
	// An interrupted run still stops its server and removes its scratch.
	sig := make(chan os.Signal, 1) // signal.Notify must not block
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllServers()
		_ = os.RemoveAll(tmp) // scratch only
		os.Exit(130)
	}()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	newRun := func(wl *workload, seed int64, trace bool) *run {
		return &run{wl: wl, seed: seed, seconds: *seconds, trace: trace, bin: bin, tmpRoot: tmp, logf: logf}
	}

	if *aa > 0 {
		if err := runAA(*aa, newRun); err != nil {
			logf("bench: %v", err)
			return 1
		}
		return 0
	}

	wl := workloadByName(*wlName)
	if wl == nil {
		logf("bench: unknown workload %q (want one of %s)", *wlName, strings.Join(workloadNames(), ", "))
		return 2
	}
	r := newRun(wl, *seed, *trace == 1)
	if *traceOut != "" && r.trace {
		r.spans = &spanLog{}
	}
	res, err := r.execute()
	if r.spans != nil {
		if werr := r.spans.writeFile(*traceOut); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		logf("bench: %s: %v", wl.name, err)
		return 1
	}
	metrics := res.e2e
	if r.trace {
		metrics = res.layers
	}
	fmt.Printf("workload %s seed %d: ops %d, ops_attempted %d, ops_failed %d (capacity counts %s)\n",
		wl.name, *seed, res.ops, res.attempted, res.failed, wl.unit)
	for _, m := range metrics {
		fmt.Printf("%-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Println(resultLine(res, metrics))
	if res.failed > 0 {
		logf("bench: %s: %d of %d ops failed; first: %s", wl.name, res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// resultLine renders the driver's contract: one JSON object, last on stdout.
func resultLine(res *result, metrics []metric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]mv{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no spelling for them; a 0 time is visibly wrong
		}
		out.Metrics[m.name] = mv{v, m.unit}
	}
	b, _ := json.Marshal(out) // finite floats and strings cannot fail
	return string(b)
}

// runAA runs every workload n times on this one build (seeds 1..n) and
// prints, per end-to-end metric, the median, quartiles and (max−min)/median
// of the normalized value beside its raw twin: the table bounds are set from.
func runAA(n int, newRun func(*workload, int64, bool) *run) error {
	type series struct{ norm, raw []float64 }
	for _, wl := range workloads {
		data := map[string]*series{}
		for seed := int64(1); seed <= int64(n); seed++ {
			res, err := newRun(wl, seed, false).execute()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s seed %d: %d ops failed; first: %s", wl.name, seed, res.failed, res.firstErr)
			}
			for _, m := range res.e2e {
				s := data[m.name]
				if s == nil {
					s = &series{}
					data[m.name] = s
				}
				s.norm = append(s.norm, m.value)
				if raw, ok := res.raw[m.name]; ok {
					s.raw = append(s.raw, raw)
				}
			}
		}
		fmt.Printf("\n### %s (%d runs)\n\n", wl.name, n)
		fmt.Println("| metric | unit | median | q1 | q3 | iqr/median | (max−min)/median | raw median | raw (max−min)/median |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, m := range endToEnd {
			s := data[m.name]
			med, q1, q3, lo, hi := spread(s.norm)
			rawCols := "— | —"
			if len(s.raw) > 0 {
				rmed, _, _, rlo, rhi := spread(s.raw)
				rawCols = fmt.Sprintf("%.4g | %.1f%%", rmed, 100*(rhi-rlo)/rmed)
			}
			fmt.Printf("| `%s` | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %s |\n",
				m.name, m.unit, med, q1, q3, 100*(q3-q1)/med, 100*(hi-lo)/med, rawCols)
		}
	}
	return nil
}

// spread returns the median, the quartiles as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), and the
// extremes.
func spread(v []float64) (med, q1, q3, lo, hi float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return
	}
	at := func(p float64) float64 {
		// Position p*(n+1) on a 1-based axis, clamped, linearly interpolated.
		x := p * float64(n+1)
		j := int(x)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (x-float64(j))*(s[j]-s[j-1])
	}
	return median(s), at(0.25), at(0.75), s[0], s[n-1]
}
