package vdb

import (
	"fmt"
	"sync"
	"testing"
)

// BenchmarkAppendDurable times one acknowledged durable append of a 16-frame
// batch — store write, journal record, trigger classification, label merge,
// the commit fsync — with one writer and with four appending concurrently,
// where commits group. An op is one batch; fsyncs/op is the journal's commit
// count over the batches acknowledged (1 for a lone writer, less when
// writers share fsyncs). Run it on the disk you care about: the temp
// directory's file system decides what an fsync costs.
func BenchmarkAppendDurable(b *testing.B) {
	const batch = 16
	env := durSetup(b)
	for _, writers := range []int{1, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			store := env.createStore(b, b.TempDir(), 16)
			db := env.newDB(b, store, env.metas[:16], true)
			if _, err := db.EnableDurability(DurabilityOptions{Dir: b.TempDir()}); err != nil {
				b.Fatal(err)
			}
			// The first triggered append backfills the column over the rows
			// the store came with.
			if _, err := db.Append(env.images[:batch], env.metas[:batch]); err != nil {
				b.Fatal(err)
			}
			commits := db.wal.Stats().Commits
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += writers {
						at := (i * batch) % (len(env.images) - batch)
						if _, err := db.Append(env.images[at:at+batch], env.metas[at:at+batch]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(db.wal.Stats().Commits-commits)/float64(b.N), "fsyncs/op")
			if err := db.CloseDurability(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
