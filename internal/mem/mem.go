// Package mem models the GPU device (global) memory: a flat 32-bit address
// space backed by a growable byte image, plus an allocator that tracks
// valid ranges so that fault-corrupted pointers dereferencing unallocated
// memory raise the address violations that the classifier reports as
// Crashes.
//
// Local memory is carved out of this space too (as on real GPUs, where
// local memory resides in device DRAM), so local accesses flow through the
// cache hierarchy and local-memory fault injections are bit flips in this
// image.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// BaseAddr is the first allocatable device address. Address 0 and the rest
// of the first page stay unmapped so that null-pointer dereferences (a
// classic consequence of a corrupted pointer) fault.
const BaseAddr = 0x1000

// allocAlign is the allocation granularity. 256 bytes matches CUDA's
// cudaMalloc alignment guarantee.
const allocAlign = 256

// maxSize caps the address space at 1 GiB to catch runaway allocations.
const maxSize = 1 << 30

type extent struct {
	addr, size uint32
}

// Memory is a device memory image with allocation tracking. It is not safe
// for concurrent use; each simulation owns its instance.
type Memory struct {
	data   []byte
	next   uint32   // bump pointer for fresh allocations
	allocs []extent // sorted by addr; includes reserved regions

	// Copy-on-write sync state (see Stamp, RestoreFrom, CaptureFrom). stamp
	// names the capture this image was last made equal to and track holds the
	// pages it wrote since (nil on a template, which is never written, and
	// when tracking is off: a write then costs one nil check). The image a
	// recording captures from also keeps prev, the interval before track's —
	// non-nil marks the one image that numbers the recording's captures. A
	// template keeps delta, frozen from its capture until the next one into
	// it: delta[0] brings an image one capture behind up to it, delta[1] two.
	stamp Stamp
	track *DirtyTracker
	prev  *DirtyTracker
	delta [2]*DirtyTracker
}

// SyncStats reports what one RestoreFrom/CaptureFrom moved: dirty pages
// copied versus the image total, and whether the call fell back to a full
// copy. The fork engine aggregates these into the campaign COW counters.
type SyncStats struct {
	UnitsCopied int // pages actually copied
	UnitsTotal  int // pages in the source image
	BytesCopied int64
	BytesTotal  int64
	Full        bool // provenance unknown or forced: whole image copied
}

// StartTracking opens a recording on this image: what it holds now is
// capture 0 and dirty-page tracking is on and empty. The campaign prefix run
// gets here through its first snapshot capture.
func (m *Memory) StartTracking() {
	m.Detach()
	m.stamp, m.track, m.prev = NewRecording(), NewDirtyTracker(), NewDirtyTracker()
}

// SetSyncedTo records that m's content is an exact copy of src's — src's
// capture plus whatever src itself wrote since — and enables dirty tracking
// on m, so the next RestoreFrom an image of the same recording copies only
// what diverged. Called right after a sync established that equality.
func (m *Memory) SetSyncedTo(src *Memory) {
	if m.track == nil {
		m.track = NewDirtyTracker()
	}
	m.track.CopyFrom(src.track)
	m.stamp, m.prev, m.delta = src.stamp, nil, [2]*DirtyTracker{}
}

// markWrite records the pages of [addr, addr+n) as dirty when tracking is
// enabled. Callers clip n to the image first.
func (m *Memory) markWrite(addr uint32, n int) {
	if m.track == nil || n <= 0 {
		return
	}
	m.track.MarkRange(int(addr)>>pageShift, (int(addr)+n-1)>>pageShift+1)
}

// fullCopy is the full leg of both sync directions: a verbatim deep copy.
func (m *Memory) fullCopy(src *Memory, st *SyncStats) {
	m.CopyFrom(src)
	st.Full, st.UnitsCopied, st.BytesCopied = true, st.UnitsTotal, st.BytesTotal
}

// copyPages is the delta leg of both sync directions: it makes m a copy of
// src given that the two differ at most in the pages of set. All length
// divergence is in the set (growth marks the pages it adds, on either side),
// so resize first, then copy.
func (m *Memory) copyPages(src *Memory, set *DirtyTracker, st *SyncStats) {
	m.data = m.data[:len(src.data)]
	set.Range(func(p int) bool {
		lo := p * PageBytes
		if lo >= len(src.data) {
			return false // ascending: nothing further overlaps the image
		}
		hi := min(lo+PageBytes, len(src.data))
		copy(m.data[lo:hi], src.data[lo:hi])
		st.UnitsCopied++
		st.BytesCopied += int64(hi - lo)
		return true
	})
	m.copyAllocator(src)
}

// RestoreFrom makes m a copy of src, copying only the pages where the two
// can differ when provenance allows (Stamp.Behind): both hold captures of one
// recording, src's at most two after m's, so they differ at most in what
// either wrote since and in the delta set src — a snapshot template, frozen
// until its next CaptureFrom — carries for that lag. Any other provenance, or
// full=true, is a verbatim deep copy. The per-experiment fork-restore path;
// it reads src and writes only m, so any number of vessels restore from one
// template while the recording captures into another.
func (m *Memory) RestoreFrom(src *Memory, full bool) SyncStats {
	st := SyncStats{UnitsTotal: (len(src.data) + PageBytes - 1) / PageBytes, BytesTotal: int64(len(src.data))}
	lag, ok := m.stamp.Behind(src.stamp)
	if full || !ok || m.track == nil || cap(m.data) < len(src.data) || (lag > 0 && src.delta[lag-1] == nil) {
		m.fullCopy(src, &st)
		if full {
			m.Detach()
			return st
		}
	} else {
		if lag > 0 {
			m.track.Merge(src.delta[lag-1])
		}
		m.track.Merge(src.track)
		m.copyPages(src, m.track, &st)
	}
	m.SetSyncedTo(src)
	return st
}

// CaptureFrom makes m — a snapshot template nothing reads any more — a copy
// of src, the image being recorded, as the recording's next capture. The
// sets that bring an image one or two captures behind up to this one are
// frozen into m.delta first (src's current interval; that plus the one
// before), and m is the first to use them: a template recaptured every time
// moves the first, one of two taking turns the second, any other storage the
// whole image. src then opens its next interval; a src nobody records yet
// starts a recording here. full=true deep-copies and leaves no provenance.
// The snapshot-recycling path of the campaign prefix run.
func (m *Memory) CaptureFrom(src *Memory, full bool) SyncStats {
	st := SyncStats{UnitsTotal: (len(src.data) + PageBytes - 1) / PageBytes, BytesTotal: int64(len(src.data))}
	if full {
		m.fullCopy(src, &st)
		m.Detach()
		return st
	}
	if src.prev == nil {
		src.StartTracking()
	}
	at := Stamp{Rec: src.stamp.Rec, N: src.stamp.N + 1}
	for i := range m.delta {
		if m.delta[i] == nil {
			m.delta[i] = NewDirtyTracker()
		}
		m.delta[i].CopyFrom(src.track)
	}
	m.delta[1].Merge(src.prev)
	if lag, ok := m.stamp.Behind(at); !ok || m.track != nil || cap(m.data) < len(src.data) {
		m.fullCopy(src, &st)
		m.track = nil
	} else {
		m.copyPages(src, m.delta[lag-1], &st)
	}
	m.stamp, src.stamp = at, at
	src.prev, src.track = src.track, src.prev
	src.track.Clear()
	return st
}

// DirtyPages returns how many pages the image has written since its dirty
// set was last cleared (0 when tracking is off). Test and diagnostics hook.
func (m *Memory) DirtyPages() int {
	if m.track == nil {
		return 0
	}
	return m.track.Count()
}

// New returns an empty device memory.
func New() *Memory {
	return &Memory{next: BaseAddr, stamp: NewRecording()}
}

// Clone returns a deep copy of the memory image and its allocator state.
// The copy shares nothing with the original.
func (m *Memory) Clone() *Memory {
	n := New()
	n.CopyFrom(m)
	return n
}

// Reset empties the image — no allocations, no bytes, sync provenance
// dropped — and keeps its capacity. What is left cannot be told from New():
// the capacity is invisible until grow hands it out, and grow zero-fills
// what it hands out.
func (m *Memory) Reset() {
	m.data = m.data[:0]
	m.allocs = m.allocs[:0]
	m.next = BaseAddr
	m.Detach()
	m.stamp = NewRecording() // content redefined: an image still synced to m full-copies
}

// Detach drops everything that ties m to a recording or to a sync point:
// its stamp, its dirty sets and the deltas frozen at its last capture. The
// storage a device parks for a later owner keeps its contents and nothing
// else. Contents are untouched.
func (m *Memory) Detach() {
	m.stamp, m.track, m.prev, m.delta = Stamp{}, nil, nil, [2]*DirtyTracker{}
}

// CopyFrom makes m a deep copy of src, reusing m's existing backing arrays
// when they are large enough. Campaign forks restore thousands of
// snapshots per campaign; reuse keeps that free of large allocations.
func (m *Memory) CopyFrom(src *Memory) {
	if cap(m.data) >= len(src.data) {
		m.data = m.data[:len(src.data)]
	} else {
		// Reserve what src reserved, up to grow's half again: growth src
		// absorbs without reallocating, a template or vessel that mirrors it
		// then absorbs by delta too.
		m.data = make([]byte, len(src.data), min(cap(src.data), len(src.data)+len(src.data)/2))
	}
	copy(m.data, src.data)
	m.copyAllocator(src)
	// A verbatim copy redefines m's content: it is capture 0 of a recording
	// nothing else has seen, so a later RestoreFrom cannot mistake stale dirty
	// state for a valid delta, and a recording m was the source of ends.
	// RestoreFrom/CaptureFrom stamp it with the source's when appropriate.
	m.stamp, m.prev = NewRecording(), nil
}

func (m *Memory) copyAllocator(src *Memory) {
	if cap(m.allocs) >= len(src.allocs) {
		m.allocs = m.allocs[:len(src.allocs)]
	} else {
		m.allocs = make([]extent, len(src.allocs))
	}
	copy(m.allocs, src.allocs)
	m.next = src.next
}

// Alloc reserves size bytes and returns the base device address. The
// region is zero-initialized.
func (m *Memory) Alloc(size uint32) (uint32, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	aligned := (size + allocAlign - 1) &^ uint32(allocAlign-1)
	addr := m.next
	if uint64(addr)+uint64(aligned) > maxSize {
		return 0, fmt.Errorf("mem: out of device memory (%d bytes requested at %#x)", size, addr)
	}
	m.next = addr + aligned
	m.insert(extent{addr, size})
	m.grow(addr + size)
	return addr, nil
}

// Free releases an allocation made by Alloc. The address must be an
// allocation base address.
func (m *Memory) Free(addr uint32) error {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].addr >= addr })
	if i == len(m.allocs) || m.allocs[i].addr != addr {
		return fmt.Errorf("mem: free of unallocated address %#x", addr)
	}
	m.allocs = append(m.allocs[:i], m.allocs[i+1:]...)
	return nil
}

func (m *Memory) insert(e extent) {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].addr >= e.addr })
	m.allocs = append(m.allocs, extent{})
	copy(m.allocs[i+1:], m.allocs[i:])
	m.allocs[i] = e
}

func (m *Memory) grow(limit uint32) {
	old := len(m.data)
	if int(limit) <= old {
		return
	}
	if cap(m.data) >= int(limit) {
		// Reuse capacity left by a previous, larger image — but zero it:
		// Alloc promises zero-initialized regions.
		m.data = m.data[:limit]
		clear(m.data[old:])
	} else {
		// Grow the capacity by half the image at a time: an application
		// allocates hundreds of times (every cudaMalloc, every launch's
		// parameters and binary image), and reallocating to exactly the
		// new limit copied the whole image on each of them.
		grown := make([]byte, int(limit), max(int(limit), min(old+old/2, maxSize)))
		copy(grown, m.data)
		m.data = grown
	}
	if m.track != nil {
		m.track.MarkRange(old>>pageShift, (len(m.data)+PageBytes-1)>>pageShift)
	}
}

// Extent returns the bounds [lo, hi) of the allocated region containing
// addr. A caller checking many nearby addresses — a warp's lanes — tests
// them against the bounds and looks up again only on a miss.
func (m *Memory) Extent(addr uint32) (lo, hi uint32, ok bool) {
	// Binary search for the last extent with base <= addr.
	i, j := 0, len(m.allocs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if m.allocs[h].addr <= addr {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == 0 {
		return 0, 0, false
	}
	e := m.allocs[i-1]
	// Alloc keeps every region below maxSize, so the end fits 32 bits.
	if hi = e.addr + e.size; addr >= hi {
		return 0, 0, false
	}
	return e.addr, hi, true
}

// Valid reports whether [addr, addr+size) lies entirely inside one
// allocated region.
func (m *Memory) Valid(addr, size uint32) bool {
	_, hi, ok := m.Extent(addr)
	return ok && size != 0 && uint64(addr)+uint64(size) <= uint64(hi)
}

// Size returns the current image size in bytes (high-water mark).
func (m *Memory) Size() int { return len(m.data) }

// Read32 reads a little-endian 32-bit word. The caller must have validated
// the address; out-of-image reads return 0.
func (m *Memory) Read32(addr uint32) uint32 {
	if int(addr)+4 > len(m.data) {
		return 0
	}
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// Write32 writes a little-endian 32-bit word. The caller must have
// validated the address; out-of-image writes are dropped.
func (m *Memory) Write32(addr uint32, v uint32) {
	if int(addr)+4 > len(m.data) {
		return
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	m.markWrite(addr, 4)
}

// ReadBytes copies len(dst) bytes starting at addr into dst. Bytes beyond
// the image read as zero.
func (m *Memory) ReadBytes(addr uint32, dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
	if int(addr) >= len(m.data) {
		return
	}
	copy(dst, m.data[addr:])
}

// WriteBytes copies src into the image at addr, dropping bytes beyond the
// image.
func (m *Memory) WriteBytes(addr uint32, src []byte) {
	if int(addr) >= len(m.data) {
		return
	}
	n := copy(m.data[addr:], src)
	m.markWrite(addr, n)
}

// FlipBit flips one bit of the image: bit index 0 is the LSB of the byte
// at addr. Used for local-memory (off-chip) fault injection and for cache
// write-back of corrupted lines. Flips beyond the image are ignored.
func (m *Memory) FlipBit(addr uint32, bit uint) {
	idx := int(addr) + int(bit/8)
	if idx >= len(m.data) {
		return
	}
	m.data[idx] ^= 1 << (bit % 8)
	m.markWrite(uint32(idx), 1)
}

// HostWrite copies host data into device memory (cudaMemcpyHostToDevice).
// The destination must be a valid allocated range.
func (m *Memory) HostWrite(addr uint32, src []byte) error {
	if !m.Valid(addr, uint32(len(src))) {
		return fmt.Errorf("mem: HostWrite to invalid range [%#x,+%d)", addr, len(src))
	}
	n := copy(m.data[addr:], src)
	m.markWrite(addr, n)
	return nil
}

// HostRead copies device memory to the host (cudaMemcpyDeviceToHost). The
// source must be a valid allocated range.
func (m *Memory) HostRead(addr uint32, dst []byte) error {
	if !m.Valid(addr, uint32(len(dst))) {
		return fmt.Errorf("mem: HostRead from invalid range [%#x,+%d)", addr, len(dst))
	}
	copy(dst, m.data[addr:])
	return nil
}
