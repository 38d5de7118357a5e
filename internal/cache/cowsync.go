package cache

import (
	"math/bits"

	"gpufi/internal/mem"
)

// This file is the cache leg of the campaign engine's copy-on-write fork
// protocol (the device-memory leg lives in internal/mem). A cache tracks
// which of its lines were touched — filled, evicted, written, injected,
// or hook-mutated — since its last synchronization point; restoring a fork
// vessel or recapturing a recycled snapshot template then moves only those
// lines instead of the whole tag+data arena. The provenance (stamp, touched,
// prev, delta) is mem.Memory's, and the rule that reads it is the same
// function, mem.Stamp.Behind; see DESIGN.md "Memory model & copy-on-write
// fork" for the invariants.

// lineSet is a fixed-size bitmap over the cache's lines. nil bits = off.
type lineSet struct {
	bits []uint64
}

func newLineSet(lines int) *lineSet {
	return &lineSet{bits: make([]uint64, (lines+63)/64)}
}

func (s *lineSet) mark(i int)     { s.bits[i>>6] |= 1 << uint(i&63) }
func (s *lineSet) unmark(i int)   { s.bits[i>>6] &^= 1 << uint(i&63) }
func (s *lineSet) has(i int) bool { return s.bits[i>>6]&(1<<uint(i&63)) != 0 }
func (s *lineSet) clear()         { clear(s.bits) }

// set makes s equal to o; a nil o is the empty set.
func (s *lineSet) set(o *lineSet) {
	s.clear()
	s.merge(o)
}

// merge adds o's lines to s; a nil o is the empty set.
func (s *lineSet) merge(o *lineSet) {
	if o != nil {
		for i, w := range o.bits {
			s.bits[i] |= w
		}
	}
}

func (s *lineSet) count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// rangeSet calls fn for every set line index in ascending order.
func (s *lineSet) rangeSet(fn func(i int)) {
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w<<6 + b)
			word &^= 1 << uint(b)
		}
	}
}

// SyncStats reports what one RestoreFrom/CaptureFrom moved. Full marks a
// sync that could not use the touched sets and walked the resident lines of
// both sides instead; the copied counts are what moved either way.
type SyncStats struct {
	UnitsCopied int // lines actually copied
	UnitsTotal  int // lines in the cache
	BytesCopied int64
	BytesTotal  int64
	Full        bool
}

// markLine records a line mutation when touch tracking is on. Every state
// transition that makes the line diverge from a synced copy must call it:
// LRU touches, fills, evictions, write hits, hook arms/fires/kills,
// resident updates and injected flips.
func (c *Cache) markLine(idx int) {
	if c.touched != nil {
		c.touched.mark(idx)
	}
}

// StartTracking opens a recording on this cache: what it holds now is
// capture 0 and touched-line tracking is on and empty.
func (c *Cache) StartTracking() {
	c.Detach()
	c.stamp, c.touched, c.prev = mem.NewRecording(), newLineSet(len(c.lines)), make([]*lineSet, mem.MaxLag-1)
	for i := range c.prev {
		c.prev[i] = newLineSet(len(c.lines))
	}
}

// SetSyncedTo records that c's content is an exact copy of src's — src's
// capture plus whatever src itself touched since — and enables touch
// tracking on c. Called right after a sync established that equality.
func (c *Cache) SetSyncedTo(src *Cache) {
	if c.touched == nil {
		c.touched = newLineSet(len(c.lines))
	}
	c.touched.set(src.touched)
	c.stamp, c.prev, c.delta = src.stamp, nil, [mem.MaxLag]*lineSet{}
}

// TouchedLines returns how many lines were touched since the last sync
// point (0 when tracking is off). Test and diagnostics hook.
func (c *Cache) TouchedLines() int {
	if c.touched == nil {
		return 0
	}
	return c.touched.count()
}

// copyLine copies line i of src — header, hooks, and data when observable —
// into c.
func (c *Cache) copyLine(src *Cache, i int) {
	c.lines[i] = src.lines[i]
	if src.lines[i].valid {
		copy(c.data(i), src.data(i))
		c.resident.mark(i)
	} else {
		c.resident.unmark(i)
	}
	if len(src.hooks)+len(c.hooks) == 0 {
		return
	}
	if hb, armed := src.hooks[i]; armed {
		if c.hooks == nil {
			c.hooks = make(map[int][]uint16)
		}
		c.hooks[i] = append([]uint16(nil), hb...)
	} else {
		c.dropHooks(i)
	}
}

// fullCopy is the full leg of both sync directions: CopyFrom, which costs
// the lines resident on either side.
func (c *Cache) fullCopy(src *Cache, backing Backing, st *SyncStats) error {
	moved, err := c.CopyFrom(src, backing)
	st.Full, st.UnitsCopied, st.BytesCopied = true, moved, int64(moved*c.geom.LineBytes)
	return err
}

// copyLines is the delta leg of both sync directions: it makes c a copy of
// src given that the two differ at most in the lines of set.
func (c *Cache) copyLines(src *Cache, backing Backing, set *lineSet, st *SyncStats) {
	c.backing = backing
	c.useCtr = src.useCtr
	c.stats = src.stats
	set.rangeSet(func(i int) {
		c.copyLine(src, i)
		st.UnitsCopied++
		st.BytesCopied += int64(c.geom.LineBytes)
	})
}

// RestoreFrom makes c a copy of src (same geometry) wired over backing,
// copying only the lines that can differ when provenance allows
// (mem.Stamp.Behind): both hold captures of one recording, src's at most
// mem.MaxLag after c's, so they differ at most in what either touched since
// its capture and in the delta set src froze for that lag. Unknown
// provenance, geometry mismatch handling, and full=true behave like CopyFrom,
// which is also how a cache that has never mirrored anything (new, Reset or
// Detached storage) gets its baseline. The per-experiment fork-restore path; it reads src and
// writes only c.
func (c *Cache) RestoreFrom(src *Cache, backing Backing, full bool) (SyncStats, error) {
	st := SyncStats{UnitsTotal: len(src.lines), BytesTotal: int64(len(src.arena))}
	lag, ok := c.stamp.Behind(src.stamp)
	if full || !ok || c.touched == nil || (lag > 0 && src.delta[lag-1] == nil) {
		if err := c.fullCopy(src, backing, &st); err != nil || full {
			c.Detach()
			return st, err
		}
	} else {
		if lag > 0 {
			c.touched.merge(src.delta[lag-1])
		}
		c.touched.merge(src.touched)
		c.copyLines(src, backing, c.touched, &st)
	}
	c.SetSyncedTo(src)
	return st, nil
}

// CaptureFrom makes c — a snapshot template nothing reads any more — a copy
// of src, the cache being recorded, as the recording's next capture: the
// sets for a consumer one to mem.MaxLag captures behind are frozen into
// c.delta, c catches up by the one for its own lag (or takes the full leg),
// and src opens its next interval. mem.Memory's CaptureFrom, for lines; the
// snapshot-recycling path of the prefix run.
func (c *Cache) CaptureFrom(src *Cache, backing Backing, full bool) (SyncStats, error) {
	st := SyncStats{UnitsTotal: len(src.lines), BytesTotal: int64(len(src.arena))}
	if full {
		err := c.fullCopy(src, backing, &st)
		c.Detach()
		return st, err
	}
	if err := c.sameGeometry(src); err != nil {
		return st, err // before src opens a recording for a capture that will not happen
	}
	if src.prev == nil {
		src.StartTracking()
	}
	at := mem.Stamp{Rec: src.stamp.Rec, N: src.stamp.N + 1}
	for i := range c.delta {
		if c.delta[i] == nil {
			c.delta[i] = newLineSet(len(c.lines))
		}
		if i == 0 {
			c.delta[0].set(src.touched)
		} else {
			c.delta[i].set(c.delta[i-1])
			c.delta[i].merge(src.prev[i-1])
		}
	}
	if lag, ok := c.stamp.Behind(at); !ok || c.touched != nil {
		c.fullCopy(src, backing, &st) // same geometry: cannot fail
		c.touched = nil
	} else {
		c.copyLines(src, backing, c.delta[lag-1], &st)
	}
	c.stamp, src.stamp = at, at
	// src opens its next interval in the oldest set's storage.
	oldest := src.prev[len(src.prev)-1]
	copy(src.prev[1:], src.prev)
	src.prev[0], src.touched = src.touched, oldest
	src.touched.clear()
	return st, nil
}
