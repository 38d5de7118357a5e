package cache

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// wrapBacking is a flat backing that also tolerates fetches outside its
// space: a tag corrupted by InjectBit writes back, and then refills,
// anywhere in the 32-bit address space.
type wrapBacking struct{ *flatBacking }

func (b wrapBacking) FetchLine(addr uint32, dst []byte) int {
	clear(dst)
	if int(addr) < len(b.data) {
		copy(dst, b.data[addr:])
	}
	return b.fetchCost
}

// TestWarpWordsMatchLaneReference holds LoadWords and StoreWordsLocal to
// LoadWord and StoreWordLocal called once per active lane: two L1-over-L2
// stacks over flat backings take the same random transitions (reads, local
// and global writes, tag and data injections), then one serves a warp's
// words through the batch call and the other lane by lane. Registers, the
// full state of both levels — tags, valid and dirty bits, LRU stamps, data,
// hooks, statistics, resident and touched sets — and the backing bytes must
// agree. The address patterns put lanes on one word, one line, alternating
// lines, a line each, and more lines of one set than it has ways; lines are
// resident and clean, resident and dirty, evicted, or never filled.
func TestWarpWordsMatchLaneReference(t *testing.T) {
	type stack struct {
		l1, l2 *Cache
		bk     *flatBacking
	}
	newStack := func() *stack {
		bk := newFlat(residentSpace, 10)
		for i := range bk.data {
			bk.data[i] = byte(i*13 + i>>7)
		}
		l2 := New(residentGeom(), wrapBacking{bk})
		l1 := New(syncGeom(), l2)
		l1.StartTracking()
		l2.StartTracking()
		return &stack{l1: l1, l2: l2, bk: bk}
	}
	got, want := newStack(), newStack()
	rng := rand.New(rand.NewSource(19))
	word := func() uint32 { return uint32(rng.Intn(residentSpace/4)) * 4 }
	const l1SetStride = 8 * 32 // syncGeom: 8 sets of 32-byte lines
	patterns := []func(base uint32, lane int) uint32{
		func(b uint32, _ int) uint32 { return b },
		func(b uint32, l int) uint32 { return b&^31 + 4*uint32(l%8) },
		func(b uint32, l int) uint32 { return b + 4*uint32(l) },
		func(b uint32, l int) uint32 { return b&^31 + 32*uint32(l%2) + 4*uint32(l%8) },
		func(b uint32, l int) uint32 { return b + 32*uint32(l) },
		func(b uint32, l int) uint32 { return b + l1SetStride*uint32(l%5) + 4*uint32(l%3) },
		func(uint32, int) uint32 { return word() },
	}
	for iter := 0; iter < 4000; iter++ {
		if iter%16 == 0 {
			// A sync point: lines resident from here on are untouched until
			// something marks them again.
			for _, s := range []*stack{got, want} {
				s.l1.StartTracking()
				s.l2.StartTracking()
			}
		}
		// The same random transitions on both stacks.
		for k := rng.Intn(4); k > 0; k-- {
			addr, op, bit := word(), rng.Intn(6), rng.Int63()
			for _, s := range []*stack{got, want} {
				switch op {
				case 0, 1:
					s.l1.AccessRead(addr)
				case 2:
					s.l1.AccessWrite(addr, ModeLocal)
				case 3:
					s.l1.AccessWrite(addr, ModeGlobal)
				case 4:
					s.l1.InjectBit(bit % s.l1.SizeBits())
				case 5:
					s.l2.InjectBit(bit % s.l2.SizeBits())
				}
			}
		}
		var addrs, data [32]uint32
		pat, base := patterns[rng.Intn(len(patterns))], word()
		for lane := range addrs {
			addrs[lane] = pat(base, lane) % residentSpace &^ 3
			data[lane] = rng.Uint32()
		}
		mask := rng.Uint32()
		if rng.Intn(3) == 0 {
			mask = 0xFFFFFFFF
		}
		level := func(s *stack) *Cache { return s.l1 }
		if iter%3 == 2 {
			level = func(s *stack) *Cache { return s.l2 } // write-through traffic lands here
		}
		var gotRegs, wantRegs [32]uint32
		if iter%2 == 0 {
			level(got).LoadWords(mask, &addrs, &gotRegs)
			for lane := range addrs {
				if mask>>lane&1 != 0 {
					wantRegs[lane] = level(want).LoadWord(addrs[lane])
				}
			}
		} else {
			level(got).StoreWordsLocal(mask, &addrs, &data)
			for lane := range addrs {
				if mask>>lane&1 != 0 {
					level(want).StoreWordLocal(addrs[lane], data[lane])
				}
			}
		}
		if gotRegs != wantRegs {
			t.Fatalf("iter %d: loaded %08x, lane by lane %08x", iter, gotRegs, wantRegs)
		}
		for _, p := range [][2]*Cache{{got.l1, want.l1}, {got.l2, want.l2}} {
			cachesEqual(t, p[0], p[1])
			if !reflect.DeepEqual(p[0].touched, p[1].touched) || !reflect.DeepEqual(p[0].resident, p[1].resident) {
				t.Fatalf("iter %d: touched or resident set diverged", iter)
			}
		}
		if !bytes.Equal(got.bk.data, want.bk.data) {
			t.Fatalf("iter %d: backing bytes diverged", iter)
		}
	}
	if got.l1.stats.Evictions == 0 || got.l1.stats.HookFires == 0 || got.l1.stats.TagFlips == 0 {
		t.Fatalf("sequence too tame: %+v", got.l1.stats)
	}
}
