package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpufi/internal/config"
	"gpufi/internal/cowtest"
	"gpufi/internal/mem"
)

// cacheImage drives a Cache through cowtest, the property test of the delta
// rule that internal/mem runs over a Memory. Every image has a backing of its
// own, as every device has.
type cacheImage struct {
	c  *Cache
	bk *flatBacking
}

var deltaGeom = &config.Cache{Sets: 64, Ways: 4, LineBytes: 32, HitCycles: 1}

const deltaSpan = 1 << 16 // bytes of address space the test touches: eight times the cache

func newCacheImage() cowtest.Image {
	bk := newFlat(deltaSpan, 10)
	for i := range bk.data {
		bk.data[i] = byte(i * 13)
	}
	return cacheImage{New(deltaGeom, bk), bk}
}

func (i cacheImage) Mutate(rng *rand.Rand, n int) {
	c := i.c
	for ; n > 0; n-- {
		addr := uint32(rng.Intn(deltaSpan)) &^ 3
		switch rng.Intn(8) {
		case 0, 1: // line fills and evictions
			c.AccessRead(addr)
		case 2: // write-allocate, then the word
			c.AccessWrite(addr, ModeLocal)
			c.StoreWordLocal(addr, rng.Uint32())
		case 3: // evict-on-write
			c.AccessWrite(addr, ModeGlobal)
		case 4: // a tag flip, an armed hook, or nothing on an invalid line
			if _, err := c.InjectBit(rng.Int63n(c.SizeBits())); err != nil {
				panic(err)
			}
		case 5:
			c.UpdateResident(addr, []byte{byte(rng.Intn(256)), 1, 2, 3})
		case 6:
			c.StoreWord(addr, rng.Uint32())
		case 7:
			if rng.Intn(20) == 0 {
				c.Flush()
			}
		}
	}
}

func (i cacheImage) Dirt() (lines []int) {
	if i.c.touched != nil {
		i.c.touched.rangeSet(func(l int) { lines = append(lines, l) })
	}
	return lines
}

func (i cacheImage) Capture(live cowtest.Image, full bool) (int, bool) {
	st, err := i.c.CaptureFrom(live.(cacheImage).c, i.bk, full)
	if err != nil {
		panic(err)
	}
	return st.UnitsCopied, st.Full
}

func (i cacheImage) Restore(src cowtest.Image, full bool) (int, bool) {
	st, err := i.c.RestoreFrom(src.(cacheImage).c, i.bk, full)
	if err != nil {
		panic(err)
	}
	return st.UnitsCopied, st.Full
}

func (i cacheImage) DiffersFromCopyOf(src cowtest.Image) error {
	got, ref := i.c, New(deltaGeom, i.bk)
	if _, err := ref.CopyFrom(src.(cacheImage).c, i.bk); err != nil {
		return err
	}
	if got.useCtr != ref.useCtr || got.stats != ref.stats || got.backing != ref.backing {
		return fmt.Errorf("LRU clock, statistics or backing differ from a copy of the source: %d %+v, the copy has %d %+v",
			got.useCtr, got.stats, ref.useCtr, ref.stats)
	}
	if !slices.Equal(got.resident.bits, ref.resident.bits) || len(got.hooks) != len(ref.hooks) {
		return fmt.Errorf("resident set or hook table differs from a copy of the source")
	}
	for l := range ref.lines {
		switch {
		case got.lines[l] != ref.lines[l]:
			return fmt.Errorf("line %d header %+v, a copy of the source has %+v", l, got.lines[l], ref.lines[l])
		case !slices.Equal(got.hooks[l], ref.hooks[l]):
			return fmt.Errorf("line %d hooks %v, a copy of the source has %v", l, got.hooks[l], ref.hooks[l])
		case ref.lines[l].valid && !bytes.Equal(got.data(l), ref.data(l)):
			return fmt.Errorf("line %d data differs from a copy of the source", l)
		}
	}
	return nil
}

// TestDeltaRule holds Cache to the capture-number rule mem.Memory follows:
// the same table and the same random walk (cowtest), and the race arm.
func TestDeltaRule(t *testing.T) {
	cowtest.Run(t, newCacheImage, mem.MaxLag)
	t.Run("race", func(t *testing.T) { cowtest.Race(t, newCacheImage) })
}
