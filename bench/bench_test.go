package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the harness
// to.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameNames fails unless got and want hold the same names with the same
// units.
func sameNames(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		g, inGot := got[n]
		w, inWant := want[n]
		switch {
		case !nameRE.MatchString(n):
			t.Errorf("%s: name %q does not match %v", what, n, nameRE)
		case !inGot:
			t.Errorf("%s: BENCHMARK.json declares %q, the harness does not emit it", what, n)
		case !inWant:
			t.Errorf("%s: the harness emits %q, BENCHMARK.json does not declare it", what, n)
		case g != w:
			t.Errorf("%s: %q has unit %q in the harness, %q in BENCHMARK.json", what, n, g, w)
		}
	}
}

// TestSmoke runs all four workloads end to end at 1/20 scale with the traced
// pass on — real server process, oracle, kill -9 durability check — and
// holds the emitted metric names to BENCHMARK.json, both ways.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "tahoma")
	if err := buildServer("..", bin); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, w := range bj.Workloads {
		declared[w.Name] = ""
	}
	have := map[string]string{}
	for _, w := range workloads {
		have[w.name] = ""
	}
	sameNames(t, "workloads", have, declared)

	wantE2E, wantLayers := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		wantLayers[m.Name] = m.Unit
	}
	for _, full := range workloads {
		wl := full.scaled(20)
		t.Run(wl.name, func(t *testing.T) {
			r := &run{
				wl: wl, seed: 3, seconds: 0.3, trace: true, setups: 1,
				bin: bin, tmpRoot: t.TempDir(), logf: t.Logf,
			}
			res, err := r.execute()
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.ops == 0 {
				t.Fatalf("%d ops, %d of %d attempts failed; first: %s", res.ops, res.failed, res.attempted, res.firstErr)
			}
			gotE2E, gotLayers := map[string]string{}, map[string]string{}
			for _, m := range res.e2e {
				gotE2E[m.name] = m.unit
				if !(m.value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
			for _, m := range res.layers {
				gotLayers[m.name] = m.unit
			}
			sameNames(t, "end_to_end", gotE2E, wantE2E)
			sameNames(t, "per_layer", gotLayers, wantLayers)
		})
	}
}
