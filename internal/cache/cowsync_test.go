package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"gpufi/internal/config"
)

func syncGeom() *config.Cache {
	return &config.Cache{Sets: 8, Ways: 2, LineBytes: 32, HitCycles: 1}
}

func newBacked(t *testing.T) (*Cache, *flatBacking) {
	t.Helper()
	bk := newFlat(1<<16, 10)
	for i := range bk.data {
		bk.data[i] = byte(i * 13)
	}
	return New(syncGeom(), bk), bk
}

// cachesEqual compares complete observable cache state.
func cachesEqual(t *testing.T, got, want *Cache) {
	t.Helper()
	if got.useCtr != want.useCtr || got.stats != want.stats {
		t.Fatalf("counters diverged: useCtr %d/%d", got.useCtr, want.useCtr)
	}
	for i := range want.lines {
		if gl, wl := got.lines[i], want.lines[i]; gl != wl {
			t.Fatalf("line %d header diverged: %+v vs %+v", i, gl, wl)
		}
		if gh, wh := got.hooks[i], want.hooks[i]; !slices.Equal(gh, wh) {
			t.Fatalf("line %d hooks diverged: %v vs %v", i, gh, wh)
		}
		if want.lines[i].valid && !bytes.Equal(got.data(i), want.data(i)) {
			t.Fatalf("line %d data diverged", i)
		}
	}
	if len(got.hooks) != len(want.hooks) || (got.hooks == nil) != (want.hooks == nil) {
		t.Fatalf("hook tables diverged: %v vs %v", got.hooks, want.hooks)
	}
}

func TestCacheRestoreFromDelta(t *testing.T) {
	snap, _ := newBacked(t)
	for a := uint32(0); a < 2048; a += 32 {
		snap.AccessRead(a)
	}

	vesselBk := newFlat(1<<16, 10)
	vessel := New(syncGeom(), vesselBk)
	st, err := vessel.RestoreFrom(snap, vesselBk, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("first restore should be full")
	}
	cachesEqual(t, vessel, snap)

	// Touch a couple of lines, then delta-restore.
	vessel.AccessRead(64)
	vessel.AccessWrite(96, ModeLocal)
	touched := vessel.TouchedLines()
	if touched == 0 {
		t.Fatalf("mutations did not mark lines")
	}
	st, err = vessel.RestoreFrom(snap, vesselBk, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatalf("second restore should be delta")
	}
	if st.UnitsCopied != touched {
		t.Fatalf("delta restore copied %d lines, touched %d", st.UnitsCopied, touched)
	}
	cachesEqual(t, vessel, snap)

	// Injections and hook fires must mark lines too.
	if _, err := vessel.InjectBit(config.TagBits + 5); err != nil {
		t.Fatal(err)
	}
	vessel.AccessRead(0) // fires the hook
	if vessel.TouchedLines() == 0 {
		t.Fatalf("injection + hook fire did not mark lines")
	}
	if _, err := vessel.RestoreFrom(snap, vesselBk, false); err != nil {
		t.Fatal(err)
	}
	cachesEqual(t, vessel, snap)

	// Geometry mismatch still surfaces the typed error.
	other := New(&config.Cache{Sets: 4, Ways: 2, LineBytes: 32, HitCycles: 1}, vesselBk)
	if _, err := vessel.RestoreFrom(other, vesselBk, false); err == nil {
		t.Fatalf("geometry mismatch must error")
	}
}

func TestCacheCaptureFromDelta(t *testing.T) {
	live, liveBk := newBacked(t)
	for a := uint32(0); a < 1024; a += 32 {
		live.AccessRead(a)
	}
	tplBk := newFlat(1<<16, 10)
	tpl := New(syncGeom(), tplBk)
	st, err := tpl.CaptureFrom(live, tplBk, false)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("first capture should be full")
	}
	cachesEqual(t, tpl, live)

	vessel := New(syncGeom(), tplBk)
	vessel.RestoreFrom(tpl, tplBk, false)

	live.AccessRead(4096)
	live.AccessWrite(128, ModeLocal)
	st, err = tpl.CaptureFrom(live, tplBk, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatalf("recapture should be delta")
	}
	cachesEqual(t, tpl, live)

	// A vessel one capture behind converges via the template's frozen delta.
	vessel.AccessRead(512)
	st, err = vessel.RestoreFrom(tpl, tplBk, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatalf("one-capture-behind vessel restore should be delta")
	}
	cachesEqual(t, vessel, tpl)
	_ = liveBk
}

// TestCacheSyncRandomized hammers the full protocol with random access
// sequences and verifies convergence after every sync.
func TestCacheSyncRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	live, _ := newBacked(t)
	tplBk := newFlat(1<<16, 10)
	tpl := New(syncGeom(), tplBk)
	tpl.CaptureFrom(live, tplBk, false)
	vesselBk := newFlat(1<<16, 10)
	vessel := New(syncGeom(), vesselBk)

	scribble := func(c *Cache) {
		for k := rng.Intn(10); k > 0; k-- {
			a := uint32(rng.Intn(1 << 14))
			switch rng.Intn(5) {
			case 0:
				c.AccessRead(a)
			case 1:
				c.AccessWrite(a, ModeLocal)
			case 2:
				c.AccessWrite(a, ModeGlobal)
			case 3:
				c.StoreWordLocal(a&^3, rng.Uint32())
			default:
				c.InjectBit(int64(rng.Intn(int(c.SizeBits()))))
			}
		}
	}
	for iter := 0; iter < 300; iter++ {
		scribble(vessel)
		if rng.Intn(3) == 0 {
			scribble(live)
			if _, err := tpl.CaptureFrom(live, tplBk, false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := vessel.RestoreFrom(tpl, vesselBk, false); err != nil {
			t.Fatal(err)
		}
		cachesEqual(t, vessel, tpl)
	}
}
