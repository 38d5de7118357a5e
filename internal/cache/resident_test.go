package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"gpufi/internal/config"
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
		ref.touched.copyFrom(c.touched)
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
func runResidentOps(t *testing.T, ops []byte) {
	geom := residentGeom()
	liveBk, tplBk, vesselBk := newStoreLog(), newStoreLog(), newStoreLog()
	live, tpl, vessel := New(geom, liveBk), New(geom, tplBk), New(geom, vesselBk)
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i]%10, ops[i+1], ops[i+2]
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
			if err := vessel.CopyFrom(tpl, vesselBk); err != nil {
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
