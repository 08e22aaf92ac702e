package vdb

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/matstore"
	"tahoma/internal/planner"
	"tahoma/internal/repstore"
	"tahoma/internal/wal"
	"tahoma/internal/xform"
)

// TestOnDiskBytesPinned pins the bytes of the three files the durability
// layer persists: a fixed checkpoint, a fixed journal segment (commits and
// one multi-part append) and a fixed store manifest each hash to a constant.
// A change to how any of them is framed, checksummed or replaced must keep
// these digests: recovery reads files an older build wrote.
func TestOnDiskBytesPinned(t *testing.T) {
	digest := func(t *testing.T, path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}

	t.Run("checkpoint", func(t *testing.T) {
		col := matstore.NewColumn()
		col.Grow(5)
		col.SetLabel(0, true)
		col.SetLabel(1, false)
		col.SetLabel(3, true)
		ck := checkpoint{
			walSeq: 41,
			meta: []Metadata{
				{ID: 0, Location: "disk", Camera: "cam-a", TS: 3},
				{ID: 1, Location: "disk", Camera: "cam-b", TS: 5},
				{ID: 7, Location: "roof", TS: 8},
				{ID: 9, Camera: "cam-a", TS: 13},
				{ID: 12, Location: "roof", Camera: "cam-c", TS: 21},
			},
			state: ckptState{
				Usage: matstore.UsageState{Clock: 6, Entries: []matstore.UsageStateEntry{
					{Category: "cloak", Cascade: "c0", Touches: 4, Last: 6},
				}},
				Catalog: []planner.CatalogEntry{{Key: "cloak", PassRate: 0.375, Samples: 8, Seed: 0.25}},
			},
			cols: matstore.Columns{
				{Category: "cloak", Cascade: "c0"}: col,
				{Category: "cloak", Cascade: "c1"}: matstore.NewColumn(),
			},
		}
		path := filepath.Join(t.TempDir(), checkpointName)
		if err := writeCheckpoint(path, &ck); err != nil {
			t.Fatal(err)
		}
		if got, want := digest(t, path), "56ecbcec8e894c4e1691b46bb4c262c1083acf4cdc4d7ce09a8141f199d08ed8"; got != want {
			t.Fatalf("checkpoint sha256 %s, want %s", got, want)
		}
	})

	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(recAppend, []byte("first batch")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendParts(recMerge, []byte("head:"), nil, []byte("body of the merge")); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(recAppend, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := digest(t, filepath.Join(dir, "wal-0000000000000000.seg")), "9564d37632e94bfba508453d8e7c49936fdd9f394b5592ed68ee9d691868fece"; got != want {
			t.Fatalf("journal segment sha256 %s, want %s", got, want)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		s, err := repstore.Create(dir, 8, 8, xform.Grid([]int{4}, []img.ColorMode{img.RGB, img.Gray}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ims := make([]*img.Image, 3)
		for i := range ims {
			ims[i] = img.New(8, 8, img.RGB)
			for j := range ims[i].Pix {
				ims[i].Pix[j] = float32((i*31+j*7)%256) / 255
			}
		}
		if err := s.IngestAll(ims); err != nil {
			t.Fatal(err)
		}
		if got, want := digest(t, filepath.Join(dir, "manifest.json")), "49505782377dd26e688cd1468e5b376215605ac412d33eb2301a6cdb006ba873"; got != want {
			t.Fatalf("manifest sha256 %s, want %s", got, want)
		}
	})
}
