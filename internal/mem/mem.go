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

	// Copy-on-write sync state (see RestoreFrom/CaptureFrom). track records
	// the pages this image wrote since it was last synchronized; epoch is
	// bumped whenever the image's content is redefined relative to its
	// consumers; lastDelta holds the pages changed by the most recent
	// CaptureFrom into this image, so a consumer exactly one epoch behind
	// can catch up without a full copy. syncSrc/syncVer record which image
	// (at which epoch) this one last mirrored. All nil/zero when delta
	// syncing is off; reads and writes then cost exactly one nil check.
	track     *DirtyTracker
	epoch     uint64
	lastDelta *DirtyTracker
	syncSrc   *Memory
	syncVer   uint64
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

// StartTracking enables (or resets) dirty-page tracking on this image and
// advances its epoch, so any consumer synced against the previous clean
// point falls back to a full copy. The campaign prefix run calls this when
// its first snapshot is captured.
func (m *Memory) StartTracking() {
	if m.track == nil {
		m.track = NewDirtyTracker()
	} else {
		m.track.Clear()
	}
	m.epoch++
}

// SetSyncedTo records that m's content is an exact copy of src at src's
// current epoch, and enables dirty tracking on m so the next RestoreFrom
// the same source copies only what diverged. Called right after a full
// clone established that equality.
func (m *Memory) SetSyncedTo(src *Memory) {
	if m.track == nil {
		m.track = NewDirtyTracker()
	} else {
		m.track.Clear()
	}
	m.syncSrc, m.syncVer = src, src.epoch
}

// markWrite records the pages of [addr, addr+n) as dirty when tracking is
// enabled. Callers clip n to the image first.
func (m *Memory) markWrite(addr uint32, n int) {
	if m.track == nil || n <= 0 {
		return
	}
	m.track.MarkRange(int(addr)>>pageShift, (int(addr)+n-1)>>pageShift+1)
}

// RestoreFrom makes m a copy of src, copying only the pages where the two
// images can differ when provenance allows: m last mirrored src (at src's
// current epoch, or one epoch behind with src.lastDelta still available),
// m's own writes since then are in its dirty set, and src — a frozen
// snapshot image — only changes via CaptureFrom, which bumps its epoch.
// Any other provenance, or full=true, falls back to a verbatim deep copy.
// This is the per-experiment fork-restore path of the campaign engine.
func (m *Memory) RestoreFrom(src *Memory, full bool) SyncStats {
	st := SyncStats{
		UnitsTotal: (len(src.data) + PageBytes - 1) / PageBytes,
		BytesTotal: int64(len(src.data)),
	}
	fast := !full && m.track != nil && m.syncSrc == src &&
		cap(m.data) >= len(src.data) &&
		(m.syncVer == src.epoch || (m.syncVer+1 == src.epoch && src.lastDelta != nil))
	if !fast {
		m.CopyFrom(src)
		st.Full, st.UnitsCopied, st.BytesCopied = true, st.UnitsTotal, st.BytesTotal
		if full {
			m.track, m.syncSrc, m.syncVer = nil, nil, 0
		} else {
			m.SetSyncedTo(src)
		}
		m.epoch++
		return st
	}
	if m.syncVer+1 == src.epoch {
		// src was recaptured once since we last synced: its own changes are
		// recorded in lastDelta; fold them into our dirty set.
		m.track.Merge(src.lastDelta)
	}
	// All length divergence is in the dirty set (our growth marks pages,
	// src growth is in lastDelta), so resize first, then copy dirty pages.
	m.data = m.data[:len(src.data)]
	m.track.Range(func(p int) bool {
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
	if cap(m.allocs) >= len(src.allocs) {
		m.allocs = m.allocs[:len(src.allocs)]
	} else {
		m.allocs = make([]extent, len(src.allocs))
	}
	copy(m.allocs, src.allocs)
	m.next = src.next
	m.track.Clear()
	m.syncVer = src.epoch
	m.epoch++
	return st
}

// CaptureFrom makes m — a recycled snapshot template that has not been
// written since it was captured — a copy of src, copying only the pages
// src dirtied since the previous capture into m. It records that delta in
// m.lastDelta and bumps m's epoch so consumers synced against the old
// content either catch up from the delta or full-copy. src's dirty set is
// reset (and its epoch bumped) to open the next capture interval. With
// unknown provenance or full=true it deep-copies and re-baselines.
// This is the snapshot-recycling path of the campaign prefix run.
func (m *Memory) CaptureFrom(src *Memory, full bool) SyncStats {
	st := SyncStats{
		UnitsTotal: (len(src.data) + PageBytes - 1) / PageBytes,
		BytesTotal: int64(len(src.data)),
	}
	fast := !full && src.track != nil && m.syncSrc == src && m.syncVer == src.epoch &&
		cap(m.data) >= len(src.data)
	if !fast {
		m.CopyFrom(src)
		st.Full, st.UnitsCopied, st.BytesCopied = true, st.UnitsTotal, st.BytesTotal
		m.lastDelta = nil // content redefined: one-epoch catch-up is off
		m.epoch++
		if full {
			m.syncSrc, m.syncVer = nil, 0
			return st
		}
		src.StartTracking()
		m.syncSrc, m.syncVer = src, src.epoch
		return st
	}
	m.data = m.data[:len(src.data)]
	src.track.Range(func(p int) bool {
		lo := p * PageBytes
		if lo >= len(src.data) {
			return false
		}
		hi := min(lo+PageBytes, len(src.data))
		copy(m.data[lo:hi], src.data[lo:hi])
		st.UnitsCopied++
		st.BytesCopied += int64(hi - lo)
		return true
	})
	if cap(m.allocs) >= len(src.allocs) {
		m.allocs = m.allocs[:len(src.allocs)]
	} else {
		m.allocs = make([]extent, len(src.allocs))
	}
	copy(m.allocs, src.allocs)
	m.next = src.next
	if m.lastDelta == nil {
		m.lastDelta = NewDirtyTracker()
	}
	m.lastDelta.CopyFrom(src.track)
	m.epoch++
	src.track.Clear()
	src.epoch++
	m.syncVer = src.epoch
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
	return &Memory{next: BaseAddr}
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
	m.epoch++ // content redefined: an image still synced to m full-copies
}

// Detach drops everything that ties m to another image or to a sync point:
// the source it mirrored, its dirty set and the last capture's delta.
// Storage parked for a later owner must not keep the previous owner's
// snapshot image reachable. Contents are untouched.
func (m *Memory) Detach() {
	m.track, m.lastDelta = nil, nil
	m.syncSrc, m.syncVer = nil, 0
}

// CopyFrom makes m a deep copy of src, reusing m's existing backing arrays
// when they are large enough. Campaign forks restore thousands of
// snapshots per campaign; reuse keeps that free of large allocations.
func (m *Memory) CopyFrom(src *Memory) {
	if cap(m.data) >= len(src.data) {
		m.data = m.data[:len(src.data)]
	} else {
		m.data = make([]byte, len(src.data))
	}
	copy(m.data, src.data)
	if cap(m.allocs) >= len(src.allocs) {
		m.allocs = m.allocs[:len(src.allocs)]
	} else {
		m.allocs = make([]extent, len(src.allocs))
	}
	copy(m.allocs, src.allocs)
	m.next = src.next
	// A verbatim copy redefines m's content: drop any delta-sync provenance
	// so a later RestoreFrom cannot mistake stale dirty state for a valid
	// delta. RestoreFrom/CaptureFrom re-establish it when appropriate.
	m.syncSrc, m.syncVer = nil, 0
	m.epoch++
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
		// Reuse capacity left by a previous, larger epoch — but zero it:
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
