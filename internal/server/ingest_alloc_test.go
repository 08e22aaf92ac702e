package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"tahoma/internal/img"
	"tahoma/internal/repstore"
	"tahoma/internal/scenario"
	"tahoma/internal/vdb"
)

// TestIngestCopiesRecordsOnce bounds what one durable POST /ingest of sixteen
// 64×64 frames allocates: the request body, the records JSON decodes out of
// it — which are also the bytes the store and the journal frame receive — and
// small change. There is no room in that for a float32 expansion of even one
// source frame (48 KiB each, 768 KiB for the batch, which the handler used to
// build only for the store to quantize back), nor for an intermediate copy of
// the journal payload: the store's staging buffer and the journal's frame
// buffer are reused from one request to the next.
func TestIngestCopiesRecordsOnce(t *testing.T) {
	const side, frames = 64, 16
	store, err := repstore.Create(t.TempDir(), side, side, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(3))
	frame := func() []byte {
		im := img.New(side, side, img.RGB)
		for i := range im.Pix {
			im.Pix[i] = img.Unit(byte(rng.Intn(256)))
		}
		raw, err := img.AppendRecord(nil, im)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	cm, err := scenario.NewAnalytic(scenario.Camera, scenario.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	db := vdb.New(cm)
	if err := db.LoadCorpusFromStore(store, 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EnableDurability(vdb.DurabilityOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer db.CloseDurability()
	h := New(db, Options{}).Handler()

	var req IngestRequest
	recordBytes := 0
	for i := 0; i < frames; i++ {
		raw := frame()
		recordBytes += len(raw)
		req.Rows = append(req.Rows, IngestRow{ID: int64(i), TS: int64(i), Location: "gate", Camera: "cam-1", Image: raw})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("ingest: HTTP %d: %s", w.Code, w.Body)
		}
	}
	post() // sizes the reusable buffers
	post()
	const rounds = 8
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		post()
	}
	runtime.ReadMemStats(&m1)
	perOp := int((m1.TotalAlloc - m0.TotalAlloc) / rounds)
	limit := len(body) + recordBytes + 64<<10
	t.Logf("one ingest allocates %d bytes: body %d, records %d, limit %d; float32 planes alone would be %d", perOp, len(body), recordBytes, limit, frames*side*side*3*4)
	if perOp > limit {
		t.Fatalf("one ingest allocates %d bytes, limit %d (body %d + records %d + 64 KiB)", perOp, limit, len(body), recordBytes)
	}
	if db.Count() != (2+rounds)*frames {
		t.Fatalf("DB holds %d rows, want %d", db.Count(), (2+rounds)*frames)
	}
}
