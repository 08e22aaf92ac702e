package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/synth"
	"tahoma/internal/xform"
	"tahoma/internal/zoo"
)

// benchZooConfig is the design space the scenario benchmark installs per
// predicate: TinyConfig over sizes 8/16/32 with a 32×32 RGB deep model
// trained for 6 epochs.
func benchZooConfig() Config {
	cfg := TinyConfig()
	cfg.Sizes = []int{8, 16, 32}
	cfg.DeepXform = xform.Transform{Size: 32, Color: img.RGB}
	cfg.DeepEpochs = 6
	return cfg
}

// bitCase is one design space and the splits it is trained on.
type bitCase struct {
	name   string
	cfg    Config
	cat    string
	splits synth.Options
	// golden is the SHA-256 of the saved zoo on amd64 (see zooDigest).
	golden string
}

// benchZooCase is one predicate of the scenario benchmark's install.
var benchZooCase = bitCase{
	name:   "bench-zoo",
	cfg:    benchZooConfig(),
	cat:    "fence",
	splits: synth.Options{BaseSize: 32, TrainN: 80, ConfigN: 40, EvalN: 40, Seed: 7},
	golden: "7561021cf4e0dc5525d9d48363c972373ed2298d282df56738a98f21ed5104db",
}

var bitCases = []bitCase{
	{
		name:   "tiny",
		cfg:    TinyConfig(),
		cat:    "cloak",
		splits: synth.Options{BaseSize: 16, TrainN: 120, ConfigN: 40, EvalN: 50, Seed: 7},
		golden: "68d0987ea8f1ab30b118131bd75ee9ae53c1053f1ee9e964d35528be194adfe8",
	},
	benchZooCase,
}

func caseSplits(tb testing.TB, c bitCase) synth.Splits {
	tb.Helper()
	cat, err := synth.CategoryByName(c.cat)
	if err != nil {
		tb.Fatal(err)
	}
	sp, err := synth.GenerateBinary(cat, c.splits)
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// zooDigest saves sys with zoo.Save and hashes every file it wrote, in name
// order, as name, size and contents.
func zooDigest(t *testing.T, sys *System) string {
	t.Helper()
	dir := t.TempDir()
	if err := zoo.Save(dir, sys.Repo()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", e.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInitializeBitIdentical pins the trained bytes: the saved zoo must not
// depend on how many workers trained it, and on amd64 it must equal the
// recorded digest. The tensor and nn kernels round every product before
// adding it on every architecture, but the synthetic corpus the zoo trains
// on (internal/synth) still compiles to fused multiply-adds on arm64, so
// elsewhere only the worker-count invariance is checked.
func TestInitializeBitIdentical(t *testing.T) {
	for _, c := range bitCases {
		t.Run(c.name, func(t *testing.T) {
			sp := caseSplits(t, c)
			var first string
			for _, workers := range []int{1, 2, 4} {
				cfg := c.cfg
				cfg.Workers = workers
				sys, err := Initialize("contains_object("+c.cat+")", sp, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := zooDigest(t, sys)
				if first == "" {
					first = got
				} else if got != first {
					t.Fatalf("workers=%d zoo digest %s, workers=1 gave %s", workers, got, first)
				}
			}
			if runtime.GOARCH == "amd64" && first != c.golden {
				t.Fatalf("zoo digest %s, want %s", first, c.golden)
			}
		})
	}
}

// BenchmarkInitialize times one install of the benchmark zoo's design space
// (train, calibrate, score, compile) at the default Workers, in ms per
// install. Compare it at -cpu 1 and at the host's core count.
//
//	go test -run=NONE -bench=BenchmarkInitialize ./internal/core
func BenchmarkInitialize(b *testing.B) {
	c := benchZooCase
	sp := caseSplits(b, c)
	for b.Loop() {
		if _, err := Initialize("contains_object("+c.cat+")", sp, c.cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/install")
}
