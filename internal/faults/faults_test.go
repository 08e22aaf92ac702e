package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFireDisarmedIsNil(t *testing.T) {
	Reset()
	if err := Fire(StoreDecode); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if Firing(ExecWorkerPanic) {
		t.Fatal("disarmed Firing returned true")
	}
}

func TestEnableFireDisable(t *testing.T) {
	Reset()
	defer Reset()
	want := errors.New("boom")
	if err := Enable(StoreDecode, Spec{Err: want}); err != nil {
		t.Fatal(err)
	}
	if err := Fire(StoreDecode); !errors.Is(err, want) {
		t.Fatalf("Fire = %v, want %v", err, want)
	}
	// Other points stay dormant.
	if err := Fire(StoreRepRead); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	Disable(StoreDecode)
	if err := Fire(StoreDecode); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
}

func TestUnknownPointRejected(t *testing.T) {
	Reset()
	if err := Enable("no.such.point", Spec{}); err == nil {
		t.Fatal("unknown point accepted")
	}
}

func TestTimesBudgetDisarms(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(StoreRepRead, Spec{Times: 2}); err != nil {
		t.Fatal(err)
	}
	if Fire(StoreRepRead) == nil || Fire(StoreRepRead) == nil {
		t.Fatal("armed point did not fire")
	}
	if err := Fire(StoreRepRead); err != nil {
		t.Fatalf("point survived its Times budget: %v", err)
	}
	if got := Active(); len(got) != 0 {
		t.Fatalf("Active = %v after budget exhausted", got)
	}
}

func TestPanicSpec(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(ExecWorkerPanic, Spec{Panic: true}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic spec did not panic")
		}
	}()
	_ = Fire(ExecWorkerPanic)
}

func TestPureDelayReturnsNil(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(StoreRepSlow, Spec{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := Fire(StoreRepSlow); err != nil {
		t.Fatalf("pure-delay point returned %v", err)
	}
	if time.Since(t0) < 5*time.Millisecond {
		t.Fatal("delay not applied")
	}
}

func TestFSPointsRegistered(t *testing.T) {
	Reset()
	defer Reset()
	for _, p := range []string{FSWriteError, FSShortWrite, FSSyncError, FSCrashBeforeSync, FSCrashAfterSync} {
		if err := Enable(p, Spec{}); err != nil {
			t.Fatalf("fs point %s not registered: %v", p, err)
		}
		if err := Fire(p); err == nil {
			t.Fatalf("armed fs point %s did not fire", p)
		}
		Disable(p)
	}
}

func TestParse(t *testing.T) {
	Reset()
	defer Reset()
	if err := Parse("store.rep-read=error, store.rep-slow=slow:10ms ,exec.worker-panic=panic"); err != nil {
		t.Fatal(err)
	}
	got := Active()
	if len(got) != 3 {
		t.Fatalf("Active = %v, want 3 points", got)
	}
	if err := Parse("store.decode=explode"); err == nil || !strings.Contains(err.Error(), "bad mode") {
		t.Fatalf("bad mode accepted: %v", err)
	}
	if err := Parse("nope=error"); err == nil {
		t.Fatal("unknown point accepted by Parse")
	}
}

func TestSkipFiresOnLaterHitAndCountsAll(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(FSSyncError, Spec{Skip: 2, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if Fire(FSSyncError) != nil || Firing(FSSyncError) {
		t.Fatal("skipped hit fired")
	}
	if got := Hits(FSSyncError); got != 2 {
		t.Fatalf("Hits = %d after two skipped hits, want 2", got)
	}
	if Fire(FSSyncError) == nil {
		t.Fatal("hit Skip+1 did not fire")
	}
	if Fire(FSSyncError) != nil {
		t.Fatal("point survived its Times budget after the skip")
	}
	if got := Hits(FSSyncError); got != 0 {
		t.Fatalf("Hits = %d for a disarmed point, want 0", got)
	}
}
