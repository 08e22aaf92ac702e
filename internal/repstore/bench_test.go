package repstore

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/xform"
)

// BenchmarkLoadTransform prices one frame of a store-backed scan from disk
// to the model's input buffer — load + transform, the two terms of the
// paper's cost model that precede inference — over an on-disk store of 8 000
// 32×32 frames (the scenario benchmark's archive), per physical path:
//
//	record/miss  read the record into a slice the cache keeps, ApplyRecord:
//	             derive the rep's record into a reused buffer in integer
//	             arithmetic (AppendRecord) and expand it (img.UnitsInto) —
//	             what an unserved slot costs the engine
//	record/run   record/miss with the misses read a 64-row batch at a time
//	             through Cache.Records: one ReadAt per run of consecutive
//	             rows, each record copied out to a slice the cache keeps
//	record/through  the same batches through Cache.ReadThrough: one
//	             ReadAt per run into a buffer the records share, nothing
//	             admitted — what a large materializing scan costs
//	record/hit   the record is resident, ApplyRecord
//	rep/hit      the pre-materialized rep is resident: Cache.RepRecord, then
//	             ApplyRecord's identity case (one img.UnitsInto pass) into a
//	             reused buffer — what a served rep costs the engine, 0 allocs
//	             (over its own store of 500 rows, since every rep is resident
//	             whatever the store's size)
func BenchmarkLoadTransform(b *testing.B) {
	const rows, side, chunk = 8000, 32, 500
	transforms := []xform.Transform{{Size: 16, Color: img.Gray}, {Size: 8, Color: img.RGB}, {Size: 32, Color: img.RGB}}
	store, err := Create(b.TempDir(), side, side, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	repStore, err := Create(b.TempDir(), side, side, transforms)
	if err != nil {
		b.Fatal(err)
	}
	defer repStore.Close()
	rng := rand.New(rand.NewSource(41))
	for done := 0; done < rows; done += chunk {
		ims := make([]*img.Image, chunk)
		for i := range ims {
			ims[i] = randRGB(rng, side)
		}
		if err := store.IngestAll(ims); err != nil {
			b.Fatal(err)
		}
		if done == 0 {
			if err := repStore.IngestAll(ims); err != nil {
				b.Fatal(err)
			}
		}
	}
	record := int64(img.EncodedSize(side, side, img.RGB))
	newCache := func(capacity int64) *Cache {
		c, err := NewCache(store, capacity)
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	for _, tr := range transforms {
		for _, mode := range []struct {
			name     string
			capacity int64
		}{{"record/miss/", rows / 4 * record}, {"record/hit/", 2 * rows * record}} {
			b.Run(mode.name+tr.ID(), func(b *testing.B) {
				cache := newCache(mode.capacity)
				for i := 0; i < rows; i++ { // warm: fills the big cache, churns the small one
					if _, err := cache.Record(i); err != nil {
						b.Fatal(err)
					}
				}
				var dst *img.Image
				var buf []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, err := cache.Record(i % rows)
					if err != nil {
						b.Fatal(err)
					}
					dst, buf = tr.ApplyRecord(dst, buf, rec)
				}
			})
		}
		for _, mode := range []struct {
			name  string
			admit bool
		}{{"record/run/", true}, {"record/through/", false}} {
			b.Run(mode.name+tr.ID(), func(b *testing.B) {
				const batch = 64 // exec.DefaultBatch; rows is a multiple of it
				cache := newCache(rows / 4 * record)
				read := cache.ReadThrough
				if mode.admit {
					read = cache.Records
				}
				idx := make([]int, batch)
				recs := make([]img.Record, batch)
				var dst *img.Image
				var buf []byte
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%batch == 0 {
						for j := range idx {
							idx[j] = (i + j) % rows
						}
						if err := read(context.Background(), xform.Transform{}, idx, recs); err != nil {
							b.Fatal(err)
						}
					}
					dst, buf = tr.ApplyRecord(dst, buf, recs[i%batch])
				}
			})
		}
		b.Run("rep/hit/"+tr.ID(), func(b *testing.B) {
			cache, err := NewCache(repStore, 2*chunk*int64(tr.StoredBytes()))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < chunk; i++ {
				if _, err := cache.RepRecord(i, tr); err != nil {
					b.Fatal(err)
				}
			}
			var dst *img.Image
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := cache.RepRecord(i%chunk, tr)
				if err != nil {
					b.Fatal(err)
				}
				dst, buf = tr.ApplyRecord(dst, buf, rec)
			}
		})
	}
}

// BenchmarkCacheHit prices the record cache's hit path — what a resident
// source or served representation costs before it is expanded — per op of 64
// resident rows of a 500-row 32×32 store, read by every P at once
// (RunParallel: compare -cpu 1,2 for the cost of the shared lock):
//
//	<form>/single   64 one-row reads (Record, RepRecord): a lock each
//	<form>/batch64  one 64-row Records call: one lock for the batch
//
// where <form> is source (the 32×32 RGB records) or rep (16x16/gray).
func BenchmarkCacheHit(b *testing.B) {
	const rows, side, batch = 500, 32, 64
	tr := xform.Transform{Size: 16, Color: img.Gray}
	store, err := Create(b.TempDir(), side, side, []xform.Transform{tr})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(47))
	ims := make([]*img.Image, rows)
	for i := range ims {
		ims[i] = randRGB(rng, side)
	}
	if err := store.IngestAll(ims); err != nil {
		b.Fatal(err)
	}
	cache, err := NewCache(store, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, rows)
	for i := range all {
		all[i] = i
	}
	forms := []struct {
		name string
		t    xform.Transform
	}{{"source", xform.Transform{}}, {"rep", tr}}
	for _, form := range forms {
		if err := cache.Records(context.Background(), form.t, all, make([]img.Record, rows)); err != nil {
			b.Fatal(err)
		}
	}
	var goroutines atomic.Int64
	for _, form := range forms {
		read := func(idx []int, dst []img.Record) error {
			for k, i := range idx {
				var err error
				if form.t == (xform.Transform{}) {
					dst[k], err = cache.Record(i)
				} else {
					dst[k], err = cache.RepRecord(i, form.t)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		for _, mode := range []struct {
			name string
			read func(idx []int, dst []img.Record) error
		}{
			{"single", read},
			{"batch64", func(idx []int, dst []img.Record) error {
				return cache.Records(context.Background(), form.t, idx, dst)
			}},
		} {
			b.Run(form.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					dst := make([]img.Record, batch)
					lo := int(goroutines.Add(1)) * 7 * batch % (rows - batch)
					for pb.Next() {
						if err := mode.read(all[lo:lo+batch], dst); err != nil {
							b.Error(err)
							return
						}
						if lo += batch; lo+batch > rows {
							lo = 0
						}
					}
				})
				if st := cache.Stats(); st.Misses != 2*rows {
					b.Fatalf("%d misses: the hit benchmark must never load", st.Misses-2*rows)
				}
			})
		}
	}
}

// BenchmarkIngestAll prices one bulk ingest — the ONGOING scenario's set-up —
// of 8 000 32×32 frames into a fresh store, fsyncs and manifest included:
//
//	grid    every representation of xform.Grid({8,16,32}, {RGB, Gray}),
//	        the scenario benchmark's zoo grid, derived from each stored record
//	source  the source records alone
//
// The frames are 500 distinct images tiled in order, as the scenario
// benchmark's fixture tiles its corpus. The batch spans many write chunks,
// so it is staged on up to GOMAXPROCS workers; compare -cpu 1.
func BenchmarkIngestAll(b *testing.B) {
	const rows, distinct, side = 8000, 500, 32
	rng := rand.New(rand.NewSource(43))
	corpus := make([]*img.Image, distinct)
	for i := range corpus {
		corpus[i] = randRGB(rng, side)
	}
	ims := make([]*img.Image, rows)
	for i := range ims {
		ims[i] = corpus[i%distinct]
	}
	for _, c := range []struct {
		name string
		grid []xform.Transform
	}{
		{"grid", xform.Grid([]int{8, 16, 32}, []img.ColorMode{img.RGB, img.Gray})},
		{"source", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(root, strconv.Itoa(i))
				s, err := Create(dir, side, side, c.grid)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.IngestAll(ims); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.Close()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
