package xform

import (
	"fmt"
	"math/rand"
	"testing"

	"tahoma/internal/img"
)

// BenchmarkAppendRecord derives one slot from a 32×32 RGB record into a
// reused buffer, cycling over 64 distinct records: the 16×16 and 8×8 factor
// loops (gray and RGB) every default grid takes, and 24×24/gray, which is no
// factor of 32 and takes resampleTaps. It reports ns/frame and allocates
// nothing.
func BenchmarkAppendRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	recs := make([]img.Record, 64)
	for i := range recs {
		rec, err := img.ParseRecord(randRecord(b, rng, 32, 32, img.RGB))
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = rec
	}
	for _, tr := range []Transform{{Size: 16, Color: img.Gray}, {Size: 16, Color: img.RGB}, {Size: 8, Color: img.RGB}, {Size: 8, Color: img.Gray}, {Size: 24, Color: img.Gray}} {
		b.Run(fmt.Sprintf("%dx%d/%s", tr.Size, tr.Size, tr.Color), func(b *testing.B) {
			buf := tr.AppendRecord(nil, recs[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tr.AppendRecord(buf[:0], recs[i%len(recs)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
	}
}
