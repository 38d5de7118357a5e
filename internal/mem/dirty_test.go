package mem

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

func TestDirtyTrackerBasics(t *testing.T) {
	tr := NewDirtyTracker()
	if tr.Count() != 0 || tr.Dirty(0) || tr.Dirty(1000) {
		t.Fatalf("fresh tracker not clean")
	}
	tr.Mark(3)
	tr.Mark(3)
	tr.Mark(64) // new word
	tr.Mark(200)
	if tr.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tr.Count())
	}
	for _, p := range []int{3, 64, 200} {
		if !tr.Dirty(p) {
			t.Errorf("page %d should be dirty", p)
		}
	}
	if tr.Dirty(4) || tr.Dirty(65) || tr.Dirty(100000) {
		t.Errorf("clean pages report dirty")
	}
	var got []int
	tr.Range(func(p int) bool { got = append(got, p); return true })
	want := []int{3, 64, 200}
	if len(got) != len(want) {
		t.Fatalf("Range yielded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range yielded %v, want %v", got, want)
		}
	}
	tr.Clear()
	if tr.Count() != 0 || tr.Dirty(3) {
		t.Fatalf("Clear left dirt behind")
	}
	tr.MarkRange(10, 14)
	if tr.Count() != 4 || !tr.Dirty(10) || !tr.Dirty(13) || tr.Dirty(14) {
		t.Fatalf("MarkRange wrong: count=%d", tr.Count())
	}
	o := NewDirtyTracker()
	o.Mark(500)
	tr.Merge(o)
	if !tr.Dirty(500) || !tr.Dirty(10) || tr.Count() != 5 {
		t.Fatalf("Merge wrong: count=%d", tr.Count())
	}
	tr.Merge(nil) // must not panic
}

func TestDirtyTrackerRangeEarlyStop(t *testing.T) {
	tr := NewDirtyTracker()
	tr.Mark(1)
	tr.Mark(2)
	tr.Mark(3)
	n := 0
	tr.Range(func(p int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Range visited %d pages after early stop, want 2", n)
	}
}

// fill builds a memory image with a couple of allocations holding
// recognizable content.
func fillImage(t *testing.T) (*Memory, uint32, uint32) {
	t.Helper()
	m := New()
	a, err := m.Alloc(3 * PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Alloc(2 * PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*PageBytes)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := m.HostWrite(a, buf); err != nil {
		t.Fatal(err)
	}
	if err := m.HostWrite(b, buf[:2*PageBytes]); err != nil {
		t.Fatal(err)
	}
	return m, a, b
}

func imagesEqual(t *testing.T, got, want *Memory) {
	t.Helper()
	if !bytes.Equal(got.data, want.data) {
		t.Fatalf("image bytes diverged (len %d vs %d)", len(got.data), len(want.data))
	}
	if got.next != want.next || len(got.allocs) != len(want.allocs) {
		t.Fatalf("allocator state diverged")
	}
	for i := range got.allocs {
		if got.allocs[i] != want.allocs[i] {
			t.Fatalf("alloc %d diverged", i)
		}
	}
}

// TestRestoreFromDelta drives the vessel-side protocol: after a full
// restore establishes provenance, later restores copy only dirtied pages
// and still produce byte-identical images.
func TestRestoreFromDelta(t *testing.T) {
	snap, a, _ := fillImage(t)
	vessel := New()

	st := vessel.RestoreFrom(snap, false)
	if !st.Full {
		t.Fatalf("first restore should be a full copy")
	}
	imagesEqual(t, vessel, snap)

	// Dirty a word and a page-straddling range, then restore again.
	vessel.Write32(a+8, 0xdeadbeef)
	vessel.WriteBytes(a+2*PageBytes-2, []byte{1, 2, 3, 4})
	if vessel.DirtyPages() != 3 {
		t.Fatalf("DirtyPages = %d, want 3 (one word page + straddle)", vessel.DirtyPages())
	}
	st = vessel.RestoreFrom(snap, false)
	if st.Full {
		t.Fatalf("second restore should be a delta copy")
	}
	if st.UnitsCopied != 3 {
		t.Fatalf("delta restore copied %d pages, want 3", st.UnitsCopied)
	}
	imagesEqual(t, vessel, snap)

	// A vessel that grows past the snapshot must shrink back on restore.
	if _, err := vessel.Alloc(4 * PageBytes); err != nil {
		t.Fatal(err)
	}
	st = vessel.RestoreFrom(snap, false)
	if st.Full {
		t.Fatalf("restore after growth should still be a delta copy")
	}
	imagesEqual(t, vessel, snap)

	// full=true always deep-copies and disables tracking.
	st = vessel.RestoreFrom(snap, true)
	if !st.Full {
		t.Fatalf("forced restore should be full")
	}
	vessel.Write32(a, 1)
	if vessel.DirtyPages() != 0 {
		t.Fatalf("forced-full restore left tracking enabled")
	}
}

// TestRestoreFromForeignSource verifies that a restore from a different
// image than the recorded provenance falls back to a full copy.
func TestRestoreFromForeignSource(t *testing.T) {
	snapA, a, _ := fillImage(t)
	snapB, _, _ := fillImage(t)
	snapB.Write32(a, 0x1234)

	vessel := New()
	vessel.RestoreFrom(snapA, false)
	st := vessel.RestoreFrom(snapB, false)
	if !st.Full {
		t.Fatalf("restore from a foreign source must be full")
	}
	imagesEqual(t, vessel, snapB)
}

// TestCaptureFromDelta drives the template-side protocol: the live image
// keeps executing between captures, and each recapture copies only the
// pages written since the last one. A vessel one or two captures behind
// catches up from the template's frozen deltas; older vessels full-copy.
func TestCaptureFromDelta(t *testing.T) {
	live, a, b := fillImage(t)
	tpl := New()

	st := tpl.CaptureFrom(live, false)
	if !st.Full {
		t.Fatalf("first capture should be full")
	}
	imagesEqual(t, tpl, live)

	// A vessel syncs to the template now (capture n).
	vessel := New()
	vessel.RestoreFrom(tpl, false)

	// Live advances; recapture moves only the delta.
	live.Write32(a+4, 42)
	live.Write32(b, 43)
	st = tpl.CaptureFrom(live, false)
	if st.Full {
		t.Fatalf("recapture should be a delta copy")
	}
	if st.UnitsCopied != 2 {
		t.Fatalf("recapture copied %d pages, want 2", st.UnitsCopied)
	}
	imagesEqual(t, tpl, live)

	// The vessel is one capture behind: delta restore must still converge.
	vessel.Write32(a+PageBytes, 7) // vessel's own dirt on another page
	st = vessel.RestoreFrom(tpl, false)
	if st.Full {
		t.Fatalf("one-capture-behind restore should use the template's delta")
	}
	if st.UnitsCopied != 3 {
		t.Fatalf("one-capture-behind restore copied %d pages, want 3", st.UnitsCopied)
	}
	imagesEqual(t, vessel, tpl)

	// Two captures behind: the template's second delta covers both intervals.
	live.Write32(a+8, 44)
	tpl.CaptureFrom(live, false)
	live.Write32(a+2*PageBytes, 45)
	tpl.CaptureFrom(live, false)
	st = vessel.RestoreFrom(tpl, false)
	if st.Full || st.UnitsCopied != 2 {
		t.Fatalf("two-captures-behind restore: full=%v copied=%d, want a delta of 2 pages", st.Full, st.UnitsCopied)
	}
	imagesEqual(t, vessel, tpl)

	// Three behind: no frozen set covers the gap; full copy.
	for i := uint32(0); i < 3; i++ {
		live.Write32(a+16+4*i, 46)
		tpl.CaptureFrom(live, false)
	}
	st = vessel.RestoreFrom(tpl, false)
	if !st.Full {
		t.Fatalf("three-captures-behind restore must be full")
	}
	imagesEqual(t, vessel, tpl)

	// Live growth past the template's capacity forces one full recapture
	// (the template's backing array cannot hold the larger image), after
	// which delta capture resumes.
	if _, err := live.Alloc(2 * PageBytes); err != nil {
		t.Fatal(err)
	}
	st = tpl.CaptureFrom(live, false)
	if !st.Full {
		t.Fatalf("capture past template capacity should fall back to full")
	}
	imagesEqual(t, tpl, live)
	live.Write32(a, 46)
	st = tpl.CaptureFrom(live, false)
	if st.Full || st.UnitsCopied != 1 {
		t.Fatalf("delta capture should resume after re-baseline (full=%v copied=%d)",
			st.Full, st.UnitsCopied)
	}
	imagesEqual(t, tpl, live)
}

// TestRestoreFromRandomized cross-checks delta restores against ground
// truth over many random write/restore sequences: after every restore the
// vessel must equal the snapshot byte for byte.
func TestRestoreFromRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	live, _, _ := fillImage(t)
	tpl := New()
	tpl.CaptureFrom(live, false)
	vessel := New()
	for iter := 0; iter < 200; iter++ {
		// Vessel scribbles.
		for k := rng.Intn(8); k > 0; k-- {
			addr := uint32(rng.Intn(len(vessel.data) + 100))
			switch rng.Intn(3) {
			case 0:
				vessel.Write32(addr, rng.Uint32())
			case 1:
				vessel.FlipBit(addr, uint(rng.Intn(64)))
			default:
				buf := make([]byte, rng.Intn(300))
				rng.Read(buf)
				vessel.WriteBytes(addr, buf)
			}
		}
		// Occasionally the live image advances and the template recaptures.
		if rng.Intn(4) == 0 {
			for k := rng.Intn(4); k > 0; k-- {
				live.Write32(uint32(rng.Intn(len(live.data))), rng.Uint32())
			}
			tpl.CaptureFrom(live, false)
		}
		vessel.RestoreFrom(tpl, false)
		imagesEqual(t, vessel, tpl)
	}
}

// fuzzOracle mirrors a DirtyTracker with a plain map of pages.
type fuzzOracle map[int]struct{}

func (o fuzzOracle) markRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	for p := lo; p < hi; p++ {
		o[p] = struct{}{}
	}
}

// FuzzDirtyTracker feeds random mark/clear/merge/copy sequences to a
// DirtyTracker and a naive map-of-pages oracle and requires identical
// observable state after every operation. Three more operations drive the
// tracker inside a Memory, through the sequence its growth must survive:
// allocate past the image's capacity, restore to a shorter snapshot, grow
// again into the capacity left behind. Three more are what the device pool
// does to an image between campaigns: empty it and keep the capacity, park
// it with its contents and make it a copy of an image it never mirrored,
// and rebuild the snapshot under a vessel that mirrors it. After each, the
// vessel is held to a plain byte-slice model (fresh regions zero, restores
// exact).
func FuzzDirtyTracker(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 2, 0, 0, 3, 9, 9, 4, 0, 0})
	f.Add([]byte{1, 0, 255, 0, 200, 0, 2, 0, 0, 1, 10, 20})
	f.Add([]byte("mark-sweep-merge"))
	f.Add([]byte{250, 200, 9, 252, 3, 1, 250, 255, 255, 251, 0, 0, 250, 40, 2, 252, 90, 7, 250, 250, 250, 251, 0, 0, 250, 1, 1})
	f.Add([]byte{250, 90, 7, 252, 3, 1, 253, 0, 0, 250, 9, 5, 252, 1, 1, 251, 0, 0, 254, 0, 0, 250, 3, 3, 251, 0, 0, 255, 0, 0, 251, 0, 0, 251, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxPage = 2048
		tr, aux := NewDirtyTracker(), NewDirtyTracker()
		oracle, auxOracle := fuzzOracle{}, fuzzOracle{}
		snap := New()
		if _, err := snap.Alloc(3 * PageBytes / 2); err != nil {
			t.Fatal(err)
		}
		for i := range snap.data {
			snap.data[i] = byte(i * 31)
		}
		// other is an image the vessel never mirrors until it is parked: longer
		// than snap, different bytes, one more allocation.
		other := snap.Clone()
		if _, err := other.Alloc(2 * PageBytes); err != nil {
			t.Fatal(err)
		}
		for i := range other.data {
			other.data[i] = byte(i*17 + 3)
		}
		vessel := New()
		vessel.RestoreFrom(snap, false)
		model := append([]byte(nil), snap.data...)
		synced := true // the vessel mirrors snap: its next restore is a delta
		for i := 0; i+2 < len(ops); i += 3 {
			// Bytes below 250 select a tracker operation, the rest a Memory
			// one, so inputs recorded before those existed decode to the
			// sequences they always did. 250..252 are operations 6..8; 253..255
			// aliased them until the parking operations 9..11 took those bytes
			// (no recorded input used them to select an operation).
			op, a, b := ops[i]%6, int(ops[i+1])<<3|int(ops[i+2])&7, int(ops[i+2])
			if ops[i] >= 250 {
				op = 6 + (ops[i] - 250)
			}
			a, b = a%maxPage, b%64
			switch op {
			case 6: // allocate, possibly past capacity; the region must read zero
				addr, err := vessel.Alloc(uint32(1 + a*b))
				if err != nil {
					return // the input exhausted device memory: nothing left to check
				}
				model = append(model, make([]byte, len(vessel.data)-len(model))...)
				if !bytes.Equal(vessel.data, model) {
					t.Fatalf("op %d: image diverged from the model after Alloc at %#x", i/3, addr)
				}
			case 7: // restore to the shorter snapshot; capacity stays behind
				if st := vessel.RestoreFrom(snap, false); st.Full == synced {
					t.Fatalf("op %d: restore full=%v of a vessel whose provenance says %v", i/3, st.Full, !synced)
				}
				synced = true
				model = append(model[:0], snap.data...)
				imagesEqual(t, vessel, snap)
			case 8: // dirty a word near the end, so capacity left behind is not zero
				if len(model) == 0 {
					break // emptied and not allocated since: no word to dirty
				}
				addr := uint32(len(model)-4-a*b%256*4) &^ 3
				vessel.Write32(addr, 0xA5A5A5A5)
				copy(model[addr:], []byte{0xA5, 0xA5, 0xA5, 0xA5})
			case 9: // emptied for a device that starts from nothing; capacity stays
				vessel.Reset()
				model, synced = model[:0], false
				imagesEqual(t, vessel, New())
				if vessel.track != nil || vessel.prev != nil || vessel.delta != [2]*DirtyTracker{} {
					t.Fatalf("op %d: emptied image kept sync state", i/3)
				}
			case 10: // parked with its contents, then restored from an image it never mirrored
				vessel.Detach()
				if vessel.track != nil || vessel.delta != [2]*DirtyTracker{} || vessel.stamp != (Stamp{}) {
					t.Fatalf("op %d: parked image kept sync state", i/3)
				}
				if st := vessel.RestoreFrom(other, false); !st.Full {
					t.Fatalf("op %d: a parked image restored by delta", i/3)
				}
				model, synced = append(model[:0], other.data...), false
				imagesEqual(t, vessel, other)
			case 11: // the snapshot is emptied and rebuilt, as a borrowed device rebuilds it, under the vessel that mirrors it
				snap.Reset()
				if _, err := snap.Alloc(3 * PageBytes / 2); err != nil {
					t.Fatal(err)
				}
				for j := range snap.data {
					snap.data[j] = byte(j*31 + a + 1)
				}
				if st := vessel.RestoreFrom(snap, false); !st.Full {
					t.Fatalf("op %d: delta restore from a snapshot rebuilt since the vessel mirrored it", i/3)
				}
				model, synced = append(model[:0], snap.data...), true
				imagesEqual(t, vessel, snap)
			}
			if op >= 6 && !bytes.Equal(vessel.data, model) {
				t.Fatalf("op %d: image diverged from the model", i/3)
			}
			switch op {
			case 0:
				tr.Mark(a)
				oracle[a] = struct{}{}
			case 1:
				tr.MarkRange(a, a+b)
				oracle.markRange(a, a+b)
			case 2:
				tr.Clear()
				clear(oracle)
			case 3:
				aux.Mark(a)
				auxOracle[a] = struct{}{}
			case 4:
				tr.Merge(aux)
				for p := range auxOracle {
					oracle[p] = struct{}{}
				}
			case 5:
				tr.CopyFrom(aux)
				clear(oracle)
				for p := range auxOracle {
					oracle[p] = struct{}{}
				}
			}
			if tr.Count() != len(oracle) {
				t.Fatalf("op %d: Count=%d oracle=%d", i/3, tr.Count(), len(oracle))
			}
		}
		// Full final cross-check: enumeration and point queries.
		var got []int
		tr.Range(func(p int) bool { got = append(got, p); return true })
		want := make([]int, 0, len(oracle))
		for p := range oracle {
			want = append(want, p)
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Range yielded %d pages, oracle has %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range[%d]=%d, oracle says %d", i, got[i], want[i])
			}
		}
		for p := 0; p < maxPage+65; p++ {
			_, dirty := oracle[p]
			if tr.Dirty(p) != dirty {
				t.Fatalf("Dirty(%d)=%v, oracle says %v", p, tr.Dirty(p), dirty)
			}
		}
	})
}
