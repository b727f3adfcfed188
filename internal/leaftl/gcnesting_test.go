package leaftl_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"learnedftl"
	"learnedftl/internal/leaftl"
	"learnedftl/internal/nand"
	"learnedftl/internal/persist"
)

// TestFlushNestedGCSnapshotDigest pins the device state after a seeded
// overwrite stream on TinyConfig in which buffer flushes run foreground GC:
// GCFinalize then retrains segments from inside flush's HostProgram and
// UpdateTrans calls, while flush still holds its own training points. The
// two must not share a point buffer; if they did, the segments trained (and
// with them the snapshot digest) would change.
func TestFlushNestedGCSnapshotDigest(t *testing.T) {
	const want = "59c0a3e005c425354974eb229979db8e2e696191017be3579db923f3fcb9dcc8"
	l, err := leaftl.New(learnedftl.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lp := l.Cfg.LogicalPages()
	rng := rand.New(rand.NewSource(11))
	now := nand.Time(0)
	nested := 0
	for i := int64(0); i < 2*lp; i++ {
		lpn := i // sequential fill, then uniform random overwrites
		if i >= lp {
			lpn = rng.Int63n(lp)
		}
		before, gcs := l.BufferedPages(), l.Col.GCCount
		now = l.WritePages(lpn, 1, now)
		if l.BufferedPages() < before && l.Col.GCCount > gcs {
			nested++
		}
	}
	if nested == 0 {
		t.Fatal("no flushing write ran a foreground GC")
	}
	e := persist.NewEncoder()
	l.SaveState(e)
	sum := sha256.Sum256(e.Data())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("snapshot digest %s, want %s (%d flushes ran GC)", got, want, nested)
	}
}
