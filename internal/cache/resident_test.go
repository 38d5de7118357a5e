package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"gpufi/internal/config"
	"gpufi/internal/mem"
)

// The resident bitmap must equal the lines' valid bits after every
// operation that can move a valid bit, and a Flush that visits only the
// bitmap must be indistinguishable from one that evicts every line index.
// The every-index walk is the implementation Flush replaced; it lives only
// here, as the reference.

func flushEveryLine(c *Cache) {
	for i := range c.lines {
		c.evict(i)
	}
}

// copyEveryLine is the copy CopyFrom replaced: every line of src into dst,
// resident or not. It lives only here, as the reference a copy that visits
// only the lines resident on either side is held to.
func copyEveryLine(dst, src *Cache) {
	dst.useCtr = src.useCtr
	dst.stats = src.stats
	dst.hooks = nil
	for i := range dst.lines {
		dst.lines[i] = src.lines[i]
		if src.lines[i].valid {
			copy(dst.data(i), src.data(i))
		}
		if hb := src.hooks[i]; len(hb) > 0 {
			if dst.hooks == nil {
				dst.hooks = make(map[int][]uint16)
			}
			dst.hooks[i] = append([]uint16(nil), hb...)
		}
	}
	dst.resident.set(src.resident)
}

// checkCopy requires got — just made a copy of src by the sync path under
// test — to equal an every-line copy of src into a cache that has never
// held anything.
func checkCopy(t *testing.T, what string, got, src *Cache) {
	t.Helper()
	ref := New(src.geom, nil)
	copyEveryLine(ref, src)
	cachesEqual(t, got, ref)
	checkResident(t, what, got)
}

// checkDetached requires that c kept nothing that ties it to another cache
// or to a recording; a cache emptied by Reset holds a stamp of its own, like
// a new one, which nothing else can hold.
func checkDetached(t *testing.T, what string, c *Cache, reset bool) {
	t.Helper()
	if c.touched != nil || c.prev != nil || c.delta != [2]*lineSet{} || (c.stamp != (mem.Stamp{}) && !reset) {
		t.Fatalf("%s: parked cache kept sync state (touched %v, prev %v, delta %v, stamp %v)",
			what, c.touched != nil, c.prev != nil, c.delta, c.stamp)
	}
}

// storeLog is a flat backing that records every StoreLine it receives.
type storeLog struct {
	*flatBacking
	addrs []uint32
	data  [][]byte
}

func (b *storeLog) StoreLine(addr uint32, src []byte) int {
	b.addrs = append(b.addrs, addr)
	b.data = append(b.data, append([]byte(nil), src...))
	return b.flatBacking.StoreLine(addr, src)
}

func newStoreLog() *storeLog {
	b := &storeLog{flatBacking: newFlat(residentSpace, 10)}
	for i := range b.flatBacking.data {
		b.flatBacking.data[i] = byte(i * 13)
	}
	return b
}

func (b *storeLog) fork() *storeLog {
	n := &storeLog{flatBacking: newFlat(len(b.flatBacking.data), 10)}
	copy(n.flatBacking.data, b.flatBacking.data)
	return n
}

// residentGeom has 128 lines, so the bitmap spans two words. Tags corrupted
// by InjectBit write back anywhere in the address space; flatBacking drops
// what falls outside residentSpace, identically on both sides.
func residentGeom() *config.Cache {
	return &config.Cache{Sets: 32, Ways: 4, LineBytes: 32, HitCycles: 1}
}

const residentSpace = 1 << 14

func checkResident(t *testing.T, what string, c *Cache) {
	t.Helper()
	valid := 0
	for i := range c.lines {
		if c.lines[i].valid {
			valid++
		}
		if c.resident.has(i) != c.lines[i].valid {
			t.Fatalf("%s: line %d resident bit %v, valid %v", what, i, c.resident.has(i), c.lines[i].valid)
		}
	}
	if got := c.ValidLines(); got != valid {
		t.Fatalf("%s: ValidLines %d, %d lines valid", what, got, valid)
	}
}

// checkFlush flushes c, and a clone of c by the every-index walk, and
// requires the same write-backs in the same order, the same statistics,
// the same touched set and the same final state.
func checkFlush(t *testing.T, c *Cache, bk *storeLog) {
	t.Helper()
	refBk := bk.fork()
	ref := c.Clone(refBk)
	if c.touched != nil {
		ref.touched = newLineSet(len(c.lines))
		ref.touched.set(c.touched)
	}
	bk.addrs, bk.data = nil, nil
	c.Flush()
	flushEveryLine(ref)
	if len(bk.addrs) != len(refBk.addrs) {
		t.Fatalf("Flush issued %d StoreLines, the every-line walk %d", len(bk.addrs), len(refBk.addrs))
	}
	for i := range refBk.addrs {
		if bk.addrs[i] != refBk.addrs[i] || !bytes.Equal(bk.data[i], refBk.data[i]) {
			t.Fatalf("StoreLine %d: Flush wrote %#x, the every-line walk %#x (or different bytes)",
				i, bk.addrs[i], refBk.addrs[i])
		}
	}
	if !bytes.Equal(bk.flatBacking.data, refBk.flatBacking.data) {
		t.Fatalf("backing bytes differ after Flush")
	}
	if (c.touched == nil) != (ref.touched == nil) {
		t.Fatalf("touch tracking differs after Flush")
	}
	if c.touched != nil {
		for i := range c.lines {
			if c.touched.has(i) != ref.touched.has(i) {
				t.Fatalf("line %d touched %v after Flush, %v after the every-line walk",
					i, c.touched.has(i), ref.touched.has(i))
			}
		}
	}
	cachesEqual(t, c, ref)
	if c.ValidLines() != 0 {
		t.Fatalf("%d lines valid after Flush", c.ValidLines())
	}
	checkResident(t, "reference after walk", ref)
}

// runResidentOps interprets ops, three bytes each, over the roles of the
// fork protocol: a live cache the prefix run mutates, a snapshot template
// only CaptureFrom writes, and a vessel that restores from the template.
// Operations 10 to 12 are what the device pool does between campaigns: a
// cache is emptied for a device that starts from nothing, or parked with
// its contents and then made a copy of a source it never mirrored, possibly
// in the other role.
func runResidentOps(t *testing.T, ops []byte) {
	geom := residentGeom()
	liveBk, tplBk, vesselBk := newStoreLog(), newStoreLog(), newStoreLog()
	live, tpl, vessel := New(geom, liveBk), New(geom, tplBk), New(geom, vesselBk)
	for i := 0; i+2 < len(ops); i += 3 {
		// Bytes below 250 select the operations that existed before the pool
		// did, so inputs recorded then decode to the sequences they always
		// did; the rest select the parking operations.
		op, a, b := ops[i]%10, ops[i+1], ops[i+2]
		if ops[i] >= 250 {
			op = 10 + (ops[i]-250)%3
		}
		v := uint32(a)<<8 | uint32(b)
		addr := (v & 0xfff) << 2
		c, bk := live, liveBk
		if a&0x80 != 0 {
			c, bk = vessel, vesselBk
		}
		switch op {
		case 0:
			c.AccessRead(addr)
		case 1:
			c.AccessWrite(addr, ModeLocal)
		case 2:
			c.AccessWrite(addr, ModeGlobal)
		case 3:
			c.StoreWordLocal(addr, v*2654435761)
		case 4:
			c.InjectBit(int64(v) * 7919 % c.SizeBits())
		case 5:
			checkFlush(t, c, bk)
		case 6:
			vessel = tpl.Clone(vesselBk)
			cachesEqual(t, vessel, tpl)
		case 7:
			if _, err := vessel.CopyFrom(tpl, vesselBk); err != nil {
				t.Fatal(err)
			}
			cachesEqual(t, vessel, tpl)
		case 8:
			if _, err := vessel.RestoreFrom(tpl, vesselBk, b&7 == 0); err != nil {
				t.Fatal(err)
			}
			cachesEqual(t, vessel, tpl)
		case 9:
			if _, err := tpl.CaptureFrom(live, tplBk, b&7 == 0); err != nil {
				t.Fatal(err)
			}
			cachesEqual(t, tpl, live)
		case 10: // emptied for a device that starts from nothing
			if b&1 != 0 {
				// The template itself: a vessel that mirrors it must notice.
				c, bk = tpl, tplBk
			}
			c.Reset(bk)
			checkDetached(t, "reset cache", c, true)
			checkCopy(t, "reset cache", c, New(geom, bk))
			if c == tpl {
				if _, err := vessel.RestoreFrom(tpl, vesselBk, false); err != nil {
					t.Fatal(err)
				}
				checkCopy(t, "vessel of the reset template", vessel, tpl)
			}
		case 11: // the vessel parks, then restores from a cache it never mirrored
			vessel.Detach()
			checkDetached(t, "parked vessel", vessel, false)
			st, err := vessel.RestoreFrom(live, vesselBk, false)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Full {
				t.Fatalf("a parked vessel restored by delta")
			}
			checkCopy(t, "re-adopted vessel", vessel, live)
		case 12: // template and vessel park and come back in each other's role
			tpl.Detach()
			vessel.Detach()
			tpl, vessel, tplBk, vesselBk = vessel, tpl, vesselBk, tplBk
			cst, err := tpl.CaptureFrom(live, tplBk, false)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := vessel.RestoreFrom(tpl, vesselBk, false)
			if err != nil {
				t.Fatal(err)
			}
			if !cst.Full || !rst.Full {
				t.Fatalf("parked caches synced by delta (capture full %v, restore full %v)", cst.Full, rst.Full)
			}
			checkCopy(t, "re-adopted template", tpl, live)
			checkCopy(t, "vessel of the re-adopted template", vessel, tpl)
		}
		// Only the caches this operation wrote can have moved a valid bit.
		switch {
		case op <= 5:
			checkResident(t, "accessed cache", c)
		case op <= 8:
			checkResident(t, "vessel", vessel)
		default:
			checkResident(t, "template", tpl)
			checkResident(t, "live", live)
			checkResident(t, "vessel", vessel)
		}
	}
	checkFlush(t, live, liveBk)
	checkFlush(t, vessel, vesselBk)
}

func TestCacheResidentRandomized(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*600)
		rng.Read(ops)
		// Thin out the flushes and full resyncs so occupancy builds up.
		for i := 0; i < len(ops); i += 3 {
			if op := ops[i] % 10; op >= 5 && rng.Intn(4) != 0 {
				ops[i] = byte(rng.Intn(5))
			}
		}
		runResidentOps(t, ops)
	}
}

// FuzzCacheResident drives runResidentOps from the fuzzer; the seed corpus
// under testdata/fuzz covers every operation and the delta and full sync
// paths.
func FuzzCacheResident(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 8, 5, 0, 0})
	f.Add([]byte{0, 1, 2, 9, 0, 1, 8, 0, 1, 0, 0x81, 4, 8, 0, 1, 5, 0x80, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*1024 {
			ops = ops[:3*1024]
		}
		runResidentOps(t, ops)
	})
}
