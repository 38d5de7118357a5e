package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpufi/internal/cowtest"
)

// memImage drives a Memory through cowtest, the property test of the delta
// rule that internal/cache runs over a Cache.
type memImage struct{ m *Memory }

// newMemImage returns an empty image with capacity to spare: the test grows
// its images, and one that outgrew a template's backing array would take a
// full leg the rule does not call for.
func newMemImage() cowtest.Image {
	m := New()
	if _, err := m.Alloc(1 << 20); err != nil {
		panic(err)
	}
	m.Reset()
	return memImage{m}
}

func (i memImage) Mutate(rng *rand.Rand, n int) {
	m := i.m
	for ; n > 0; n-- {
		addr := uint32(rng.Intn(len(m.data) + 64))
		switch rng.Intn(6) {
		case 0: // growth
			if len(m.data) < 1<<19 {
				if _, err := m.Alloc(uint32(1 + rng.Intn(3*PageBytes))); err != nil {
					panic(err)
				}
			}
		case 1: // a free changes the allocator and no page
			if len(m.allocs) > 1 {
				if err := m.Free(m.allocs[rng.Intn(len(m.allocs))].addr); err != nil {
					panic(err)
				}
			}
		case 2:
			m.Write32(addr, rng.Uint32())
		case 3: // may straddle pages
			buf := make([]byte, rng.Intn(2*PageBytes))
			rng.Read(buf)
			m.WriteBytes(addr, buf)
		case 4:
			m.FlipBit(addr, uint(rng.Intn(64)))
		case 5:
			if len(m.allocs) > 0 {
				e := m.allocs[rng.Intn(len(m.allocs))]
				buf := make([]byte, rng.Intn(int(e.size))+1)
				rng.Read(buf)
				if err := m.HostWrite(e.addr, buf); err != nil {
					panic(err)
				}
			}
		}
	}
}

func (i memImage) Dirt() (pages []int) {
	if i.m.track != nil {
		i.m.track.Range(func(p int) bool { pages = append(pages, p); return true })
	}
	return pages
}

func (i memImage) Capture(live cowtest.Image, full bool) (int, bool) {
	st := i.m.CaptureFrom(live.(memImage).m, full)
	return st.UnitsCopied, st.Full
}

func (i memImage) Restore(src cowtest.Image, full bool) (int, bool) {
	st := i.m.RestoreFrom(src.(memImage).m, full)
	return st.UnitsCopied, st.Full
}

func (i memImage) DiffersFromCopyOf(src cowtest.Image) error {
	ref := New()
	ref.CopyFrom(src.(memImage).m)
	switch got := i.m; {
	case !bytes.Equal(got.data, ref.data):
		return fmt.Errorf("image bytes differ from a copy of the source (%d bytes, the copy has %d)", len(got.data), len(ref.data))
	case got.next != ref.next || !slices.Equal(got.allocs, ref.allocs):
		return fmt.Errorf("allocator differs from a copy of the source")
	}
	return nil
}

// TestDeltaRule holds Memory to the capture-number rule: restores at lag 0
// to 4, two templates taking turns, two recordings, forced full legs; and,
// for the race detector, captures into one template while vessels restore
// from the other.
func TestDeltaRule(t *testing.T) {
	cowtest.Run(t, newMemImage, MaxLag)
	t.Run("race", func(t *testing.T) { cowtest.Race(t, newMemImage) })
}
