package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	m := New()
	a, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a < BaseAddr {
		t.Errorf("allocation below base: %#x", a)
	}
	if a%256 != 0 {
		t.Errorf("allocation not 256-aligned: %#x", a)
	}
	b, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Errorf("second allocation %#x not after first %#x", b, a)
	}
	if _, err := m.Alloc(0); err == nil {
		t.Error("zero-size allocation accepted")
	}
}

func TestValidity(t *testing.T) {
	m := New()
	a, _ := m.Alloc(100)
	cases := []struct {
		addr, size uint32
		want       bool
	}{
		{a, 100, true},
		{a, 1, true},
		{a + 99, 1, true},
		{a + 100, 1, false}, // one past the end
		{a, 101, false},
		{a - 1, 1, false},
		{0, 4, false}, // null pointer
		{a, 0, false}, // zero size never valid
	}
	for _, tc := range cases {
		if got := m.Valid(tc.addr, tc.size); got != tc.want {
			t.Errorf("Valid(%#x, %d) = %v, want %v", tc.addr, tc.size, got, tc.want)
		}
	}
}

// TestExtent: the bounds Extent returns decide validity exactly as Valid
// does, for every word around every allocation edge, with gaps (alignment
// padding, a freed region) between the allocations.
func TestExtent(t *testing.T) {
	m := New()
	var allocs [][2]uint32
	for _, size := range []uint32{100, 256, 4, 1000, 7, 4096} {
		a, err := m.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, [2]uint32{a, a + size})
	}
	if err := m.Free(allocs[2][0]); err != nil {
		t.Fatal(err)
	}
	allocs = append(allocs[:2], allocs[3:]...)
	if _, _, ok := New().Extent(BaseAddr); ok {
		t.Error("an empty memory has an extent")
	}
	for addr := uint32(0); addr < allocs[len(allocs)-1][1]+64; addr++ {
		var want [2]uint32
		inside := false
		for _, e := range allocs {
			if addr >= e[0] && addr < e[1] {
				want, inside = e, true
			}
		}
		lo, hi, ok := m.Extent(addr)
		if ok != inside || (ok && [2]uint32{lo, hi} != want) {
			t.Fatalf("Extent(%#x) = [%#x,%#x) %v, want %v %v", addr, lo, hi, ok, want, inside)
		}
		for _, size := range []uint32{1, 4, 101} {
			if got, want := m.Valid(addr, size), inside && addr+size <= want[1]; got != want {
				t.Fatalf("Valid(%#x, %d) = %v, want %v", addr, size, got, want)
			}
		}
	}
	if m.Valid(0xFFFFFFFE, 4) || m.Valid(allocs[0][0], 0xFFFFFFFF) {
		t.Error("a range wrapping the address space is valid")
	}
}

// TestGrowKeepsItsPromises: however the capacity grows, the image is
// exactly as long as the highest allocation end, every fresh region reads
// zero — also when it reuses capacity a longer, since restored-away image
// left dirty — and growth marks every page it adds.
func TestGrowKeepsItsPromises(t *testing.T) {
	snap := New()
	if _, err := snap.Alloc(PageBytes); err != nil {
		t.Fatal(err)
	}
	m := New()
	m.RestoreFrom(snap, false)
	reallocs := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			size := uint32(1 + (i*7919)%(3*PageBytes))
			oldLen, oldCap := m.Size(), cap(m.data)
			a, err := m.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			if m.Size() != int(a+size) {
				t.Fatalf("image is %d bytes after an allocation ending at %d", m.Size(), a+size)
			}
			if cap(m.data) != oldCap {
				reallocs++
			}
			for off := oldLen; off < m.Size(); off++ {
				if m.data[off] != 0 {
					t.Fatalf("round %d: fresh byte %#x reads %#x", round, off, m.data[off])
				}
			}
			for p := oldLen >> pageShift; p <= (m.Size()-1)>>pageShift; p++ {
				if !m.track.Dirty(p) {
					t.Fatalf("round %d: growth from %d to %d left page %d clean", round, oldLen, m.Size(), p)
				}
			}
			buf := make([]byte, size)
			for k := range buf {
				buf[k] = 0xA5
			}
			if err := m.HostWrite(a, buf); err != nil {
				t.Fatal(err)
			}
		}
		// Back to the one-page snapshot: the next round grows into capacity
		// full of this round's bytes.
		if st := m.RestoreFrom(snap, false); st.Full {
			t.Fatalf("round %d: restore after growth fell back to a full copy", round)
		}
		imagesEqual(t, m, snap)
	}
	if reallocs == 0 || reallocs > 40 {
		t.Fatalf("900 allocations reallocated the image %d times; want a few (geometric growth)", reallocs)
	}
}

func TestFree(t *testing.T) {
	m := New()
	a, _ := m.Alloc(64)
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	if m.Valid(a, 1) {
		t.Error("freed region still valid")
	}
	if err := m.Free(a); err == nil {
		t.Error("double free accepted")
	}
	if err := m.Free(12345); err == nil {
		t.Error("free of random address accepted")
	}
}

func TestReadWrite32(t *testing.T) {
	m := New()
	a, _ := m.Alloc(64)
	m.Write32(a+8, 0xDEADBEEF)
	if got := m.Read32(a + 8); got != 0xDEADBEEF {
		t.Errorf("Read32 = %#x", got)
	}
	// Little-endian layout.
	var buf [4]byte
	m.ReadBytes(a+8, buf[:])
	if buf[0] != 0xEF || buf[3] != 0xDE {
		t.Errorf("byte order wrong: %x", buf)
	}
	// Out-of-image access is inert.
	m.Write32(1<<28, 7)
	if got := m.Read32(1 << 28); got != 0 {
		t.Errorf("OOB read = %d, want 0", got)
	}
}

func TestHostTransfer(t *testing.T) {
	m := New()
	a, _ := m.Alloc(16)
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.HostWrite(a, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 8)
	if err := m.HostRead(a, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Errorf("round trip: %v != %v", dst, src)
	}
	if err := m.HostWrite(a+12, src); err == nil {
		t.Error("HostWrite past allocation accepted")
	}
	if err := m.HostRead(4, dst); err == nil {
		t.Error("HostRead from unmapped accepted")
	}
}

func TestFlipBit(t *testing.T) {
	m := New()
	a, _ := m.Alloc(8)
	m.Write32(a, 0)
	m.FlipBit(a, 0)
	if got := m.Read32(a); got != 1 {
		t.Errorf("after flip bit 0: %d", got)
	}
	m.FlipBit(a, 31)
	if got := m.Read32(a); got != 1|1<<31 {
		t.Errorf("after flip bit 31: %#x", got)
	}
	// Bit index spanning bytes: bit 9 is bit 1 of byte 1.
	m.FlipBit(a, 9)
	var buf [4]byte
	m.ReadBytes(a, buf[:])
	if buf[1] != 2 {
		t.Errorf("bit 9 flip landed wrong: %x", buf)
	}
	m.FlipBit(1<<28, 3) // OOB flip must not panic
}

func TestFlipBitTwiceIdentity(t *testing.T) {
	m := New()
	a, _ := m.Alloc(64)
	f := func(word uint32, bit uint16) bool {
		b := uint(bit) % 512
		m.Write32(a, word)
		before := make([]byte, 64)
		m.ReadBytes(a, before)
		m.FlipBit(a, b)
		m.FlipBit(a, b)
		after := make([]byte, 64)
		m.ReadBytes(a, after)
		return bytes.Equal(before, after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: allocations never overlap and are all valid.
func TestQuickAllocDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := New()
		type r struct{ a, s uint32 }
		var regions []r
		for _, s16 := range sizes {
			s := uint32(s16)%4096 + 1
			a, err := m.Alloc(s)
			if err != nil {
				return false
			}
			regions = append(regions, r{a, s})
		}
		for i, x := range regions {
			if !m.Valid(x.a, x.s) {
				return false
			}
			for j, y := range regions {
				if i != j && x.a < y.a+y.s && y.a < x.a+x.s {
					return false // overlap
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOutOfMemory(t *testing.T) {
	m := New()
	if _, err := m.Alloc(1 << 29); err != nil {
		t.Fatalf("first big alloc failed: %v", err)
	}
	if _, err := m.Alloc(1 << 29); err == nil {
		t.Error("allocation beyond 1 GiB cap accepted")
	}
}

func TestSizeHighWater(t *testing.T) {
	m := New()
	if m.Size() != 0 {
		t.Errorf("fresh size = %d", m.Size())
	}
	a, _ := m.Alloc(1000)
	if m.Size() < int(a)+1000 {
		t.Errorf("size %d below allocation end", m.Size())
	}
}
