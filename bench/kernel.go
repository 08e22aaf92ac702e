package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// refMS is the reference kernel's quiet-host time in milliseconds, measured
// once on the sandbox this benchmark was defined on (`bench -kernel 400`
// while its 2 vCPUs were otherwise idle: the median sample) and frozen. Every reported time is multiplied by
// refMS / (the kernel's time around the moment it was taken), so it reads as
// "milliseconds on the reference host" whatever the host is doing. Changing
// refMS or the kernel rescales every committed number: don't.
const refMS = 1.75

// The kernel is a small mixed workload shaped like the system's own hot path
// (byte→float convert, box downsample, a 3×3 convolution with ReLU, a dense
// layer, a large copy) but sharing no code with internal/, so no PR can speed
// up the yardstick. A pure floating-point matmul was tried first and
// over-corrects; the memory-touching stages make the kernel slow down with
// the host the way decode+transform+infer does.
const (
	refImages = 24
	refSide   = 32
	refHalf   = refSide / 2
	refConvC  = 4
	refDense  = 8
	refCopy   = 1 << 20
)

type refKernel struct {
	images [refImages][refSide * refSide * 3]byte
	f32    [refSide * refSide * 3]float32
	down   [refHalf * refHalf * 3]float32
	conv   [refHalf * refHalf * refConvC]float32
	convW  [refConvC * 3 * 9]float32
	denseW [refDense * refHalf * refHalf * refConvC]float32
	src    []byte
	dst    []byte
	sink   float32
}

func newRefKernel() *refKernel {
	k := &refKernel{src: make([]byte, refCopy), dst: make([]byte, refCopy)}
	s := uint32(12345)
	next := func() uint32 { s = s*1664525 + 1013904223; return s >> 8 }
	for i := range k.images {
		for j := range k.images[i] {
			k.images[i][j] = byte(next())
		}
	}
	for i := range k.convW {
		k.convW[i] = float32(next()%2001)/1000 - 1
	}
	for i := range k.denseW {
		k.denseW[i] = float32(next()%2001)/10000 - 0.1
	}
	for i := range k.src {
		k.src[i] = byte(next())
	}
	return k
}

// run executes the kernel once.
func (k *refKernel) run() {
	var acc float32
	for n := range k.images {
		im := &k.images[n]
		for i, b := range im {
			k.f32[i] = float32(b) * (1.0 / 255)
		}
		for c := 0; c < 3; c++ {
			for y := 0; y < refHalf; y++ {
				for x := 0; x < refHalf; x++ {
					p := (2*y*refSide + 2*x) * 3
					v := k.f32[p+c] + k.f32[p+3+c] + k.f32[p+refSide*3+c] + k.f32[p+refSide*3+3+c]
					k.down[(c*refHalf+y)*refHalf+x] = v * 0.25
				}
			}
		}
		for o := 0; o < refConvC; o++ {
			for y := 0; y < refHalf; y++ {
				for x := 0; x < refHalf; x++ {
					var s float32
					for c := 0; c < 3; c++ {
						w := k.convW[(o*3+c)*9 : (o*3+c)*9+9]
						for dy := -1; dy <= 1; dy++ {
							yy := y + dy
							if yy < 0 || yy >= refHalf {
								continue
							}
							for dx := -1; dx <= 1; dx++ {
								xx := x + dx
								if xx < 0 || xx >= refHalf {
									continue
								}
								s += w[(dy+1)*3+dx+1] * k.down[(c*refHalf+yy)*refHalf+xx]
							}
						}
					}
					if s < 0 {
						s = 0
					}
					k.conv[(o*refHalf+y)*refHalf+x] = s
				}
			}
		}
		for o := 0; o < refDense; o++ {
			w := k.denseW[o*len(k.conv) : (o+1)*len(k.conv)]
			var s float32
			for i, v := range k.conv {
				s += w[i] * v
			}
			acc += s
		}
	}
	copy(k.dst, k.src)
	k.sink = acc + float32(k.dst[len(k.dst)-1])
}

// calibrator times the reference kernel in the gaps between trials, while
// the server is idle. One sample runs the kernel on every CPU at once (the
// server's engine uses them all), three executions back to back on each; the
// sample is the mean execution time. (The fastest of the three was tried: it
// hides the host taking the CPU away mid-run, which the workload does feel,
// and left archive_scan's run-to-run spread twice as wide.)
type calibrator struct {
	kernels []*refKernel
	samples []float64     // ms, in the order taken
	busy    time.Duration // wall time spent inside sample()
}

func newCalibrator(procs int) *calibrator {
	c := &calibrator{}
	for i := 0; i < procs; i++ {
		c.kernels = append(c.kernels, newRefKernel())
	}
	// One discarded execution faults the buffers in.
	c.sample()
	c.samples, c.busy = nil, 0
	return c
}

// sample takes one calibration sample, records it and returns its index.
func (c *calibrator) sample() int {
	t0 := time.Now()
	const execs = 3
	took := make([]time.Duration, len(c.kernels))
	var wg sync.WaitGroup
	for i, k := range c.kernels {
		wg.Add(1)
		go func(i int, k *refKernel) {
			defer wg.Done()
			s := time.Now()
			for r := 0; r < execs; r++ {
				k.run()
			}
			took[i] = time.Since(s)
		}(i, k)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	c.samples = append(c.samples, float64(sum)/float64(execs*len(took))/1e6)
	c.busy += time.Since(t0)
	return len(c.samples) - 1
}

// factor is the multiplier that turns a wall time taken between samples lo
// and hi (indices, inclusive) into reference-host time: refMS over the median
// of those samples widened by pad on each side, raised to exp, the measured
// code's sensitivity to host speed relative to the kernel's (1: slows down
// exactly as the kernel does).
func (c *calibrator) factor(lo, hi, pad int, exp float64) float64 {
	lo -= pad
	hi += pad
	if lo < 0 {
		lo = 0
	}
	if hi >= len(c.samples) {
		hi = len(c.samples) - 1
	}
	return math.Pow(refMS/median(c.samples[lo:hi+1]), exp)
}

// median returns the middle of v (the mean of the two middle values for an
// even count; 0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of v (nearest rank on a sorted copy; 0 for
// an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
