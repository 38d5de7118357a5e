// Package cache models set-associative caches holding both tag bits and
// actual line data, so injected bit flips propagate through real loads,
// stores, write-backs and evictions.
//
// The fault semantics follow the paper exactly (Section IV.B.4):
//
//   - A flip landing in the tag bits of a valid line is applied to the
//     stored tag immediately; subsequent lookups compare against the
//     corrupted tag (usually a conflict miss, occasionally a false hit).
//   - A flip landing in the data bits of a valid line arms a *hook* on the
//     line. On the next read hit the flip is applied to the stored data
//     (and thus to the returned bytes); on a read miss that replaces the
//     line, or a write hit that overwrites it, the hook is disarmed; a
//     write miss does nothing (write-no-allocate).
//   - A flip targeting an invalid line has no effect.
//
// Each line's injectable layout is an abstract row of 57 tag bits followed
// by the data bits, matching the paper's Table V starred sizes.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gpufi/internal/config"
	"gpufi/internal/mem"
)

// Mode selects the write policy applied to an individual access, mirroring
// GPGPU-Sim's per-space policies (paper Table II).
type Mode uint8

// Access modes.
const (
	// ModeGlobal: evict-on-write. A store hit invalidates the line; store
	// data always goes to the backing level (write-no-allocate).
	ModeGlobal Mode = iota
	// ModeLocal: write-back with write-allocate.
	ModeLocal
	// ModeTexture: read-only; stores are invalid in this mode.
	ModeTexture
)

// Error is a typed cache-integrity violation. The simulator's policy
// (matching internal/isa/eval.go) is that no fault-reachable condition
// may panic the process: an injected flip can corrupt control flow into
// issuing a store against a read-only mode, or drift a snapshot restore
// onto mismatched geometry, and both must surface as errors the caller
// classifies as a Crash outcome or heals around — never as a torn-down
// campaign.
type Error struct {
	Op     string // the failing operation ("store", "restore")
	Reason string
}

func (e *Error) Error() string { return "cache: " + e.Op + ": " + e.Reason }

// Backing is the next level below a cache: another cache or DRAM. All
// methods return the additional latency incurred.
type Backing interface {
	// FetchLine reads a full line into dst.
	FetchLine(addr uint32, dst []byte) int
	// StoreLine writes a full line (dirty write-back).
	StoreLine(addr uint32, src []byte) int
	// StoreWord writes one 32-bit word (write-through traffic).
	StoreWord(addr uint32, v uint32) int
	// PeekWord reads one word without a state change (for uncached data).
	PeekWord(addr uint32) uint32
}

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
	TagFlips   int64 // injected tag-bit flips applied
	HookArms   int64 // injected data-bit flips armed
	HookFires  int64 // hooks that fired on a read hit
	HookKills  int64 // hooks disarmed before firing
}

// line is a line's header and nothing else: 24 bytes for every 64 or 128 of
// data. Its data is its slice of the arena (Cache.data) and its armed hooks,
// which almost no line ever has, live in Cache.hooks — a device is mostly
// line tables and arenas, and a campaign holds several.
type line struct {
	tag     uint64 // stored tag, TagBits wide (possibly fault-corrupted)
	lastUse uint64
	valid   bool
	dirty   bool
}

// Cache is one set-associative cache level. Not safe for concurrent use.
type Cache struct {
	geom    *config.Cache
	backing Backing
	lines   []line
	arena   []byte // contiguous backing store for all line data: line i holds bytes [i*LineBytes, (i+1)*LineBytes)
	// hooks holds the armed data-bit flips (offsets within the line's data
	// bits) of the few valid lines an injection armed one on, by line index;
	// nil whenever none is armed.
	hooks  map[int][]uint16
	useCtr uint64
	stats  Stats

	lineShift uint // log2(LineBytes)
	setMask   uint32
	tagShift  uint
	tagMask   uint64 // TagBits wide

	// resident has bit i set exactly when lines[i].valid. Every valid-bit
	// transition maintains it, so Flush, Clone's data copy and ValidLines
	// cost what is resident, not what the geometry could hold.
	resident *lineSet

	// Copy-on-write sync state, mirroring mem.Memory (see cowsync.go): stamp
	// names the capture this cache was last made equal to, touched records
	// the lines mutated since, prev (on the cache being recorded) the
	// interval before that, and delta (on a template) the sets frozen at its
	// capture for a consumer one and two captures behind.
	stamp   mem.Stamp
	touched *lineSet
	prev    *lineSet
	delta   [2]*lineSet
}

// New builds a cache with the given geometry over a backing level.
func New(geom *config.Cache, backing Backing) *Cache {
	c := &Cache{
		geom:      geom,
		backing:   backing,
		lines:     make([]line, geom.Lines()),
		arena:     make([]byte, geom.Lines()*geom.LineBytes),
		lineShift: uint(bits.TrailingZeros32(uint32(geom.LineBytes))),
		setMask:   uint32(geom.Sets - 1),
		tagMask:   (uint64(1) << config.TagBits) - 1,
		resident:  newLineSet(geom.Lines()),
		stamp:     mem.NewRecording(),
	}
	c.tagShift = c.lineShift + uint(bits.TrailingZeros32(uint32(geom.Sets)))
	return c
}

// data returns line idx's slice of the arena.
func (c *Cache) data(idx int) []byte {
	off := idx << c.lineShift
	return c.arena[off : off+c.geom.LineBytes : off+c.geom.LineBytes]
}

// Clone returns a deep copy of the cache — tags, data, dirty bits, LRU
// state, armed fault hooks and statistics — wired over the given backing
// level: empty storage filled by the one copy routine.
func (c *Cache) Clone(backing Backing) *Cache {
	n := New(c.geom, backing)
	n.CopyFrom(c, backing) // same geometry: cannot fail
	return n
}

// CopyFrom makes c a deep copy of src (same geometry) wired over the given
// backing level, reusing c's line and arena storage, and returns how many
// lines it moved. It visits the lines resident on either side and no
// others: a line valid on neither side has a zero header on both (clearLine)
// and data nothing can observe — lookup requires the valid bit, victim takes
// an invalid way by index, fill overwrites the data before setting the bit,
// and InjectBit masks on invalid lines — so the copy costs what the two
// caches hold, not what the geometry could. A geometry mismatch returns a
// typed *Error so the caller can rebuild the cache instead of panicking.
func (c *Cache) CopyFrom(src *Cache, backing Backing) (int, error) {
	if err := c.sameGeometry(src); err != nil {
		return 0, err
	}
	c.backing = backing
	c.useCtr = src.useCtr
	c.stats = src.stats
	moved := 0
	for w, word := range src.resident.bits {
		for word |= c.resident.bits[w]; word != 0; word &= word - 1 {
			c.copyLine(src, w<<6+bits.TrailingZeros64(word))
			moved++
		}
	}
	// A verbatim copy redefines c's content: it is capture 0 of a recording
	// nothing else has seen, so stale touched state cannot be mistaken for a
	// valid delta later, and a recording c was the source of ends.
	// RestoreFrom/CaptureFrom stamp it with the source's when appropriate.
	c.stamp, c.prev = mem.NewRecording(), nil
	return moved, nil
}

// sameGeometry returns the typed error of a copy between caches of different
// geometry, nil when they match.
func (c *Cache) sameGeometry(src *Cache) error {
	if c.geom == src.geom || *c.geom == *src.geom {
		return nil
	}
	return &Error{Op: "restore", Reason: fmt.Sprintf(
		"CopyFrom with mismatched geometry (%d/%d/%d into %d/%d/%d)",
		src.geom.Sets, src.geom.Ways, src.geom.LineBytes,
		c.geom.Sets, c.geom.Ways, c.geom.LineBytes)}
}

// Reset empties the cache and rewires it over backing: every resident line
// invalidated without write-back, statistics and the LRU clock zeroed, sync
// provenance dropped. What is left cannot be told from New(geom, backing),
// at the cost of the lines that were resident.
func (c *Cache) Reset(backing Backing) {
	c.backing = backing
	c.useCtr = 0
	c.stats = Stats{}
	c.resident.rangeSet(c.clearLine)
	c.resident.clear()
	c.hooks = nil
	c.Detach()
	c.stamp = mem.NewRecording() // content redefined: a cache still synced to c takes the full path
}

// Detach drops everything that ties c to a recording or to a sync point:
// its stamp, its touched sets and the deltas frozen at its last capture.
// Contents are untouched.
func (c *Cache) Detach() {
	c.stamp, c.touched, c.prev, c.delta = mem.Stamp{}, nil, nil, [2]*lineSet{}
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Geometry returns the cache geometry.
func (c *Cache) Geometry() *config.Cache { return c.geom }

func (c *Cache) setOf(addr uint32) int { return int((addr >> c.lineShift) & c.setMask) }
func (c *Cache) tagOf(addr uint32) uint64 {
	return (uint64(addr) >> c.tagShift) & c.tagMask
}

// addrOf reconstructs the base address of a line from its (possibly
// corrupted) stored tag and its set index. Tags corrupted beyond the
// 32-bit address space reconstruct to a wrapped address: a dirty eviction
// of such a line scribbles its data at the wrong place, exactly the
// corruption a real tag upset causes.
func (c *Cache) addrOf(set int, tag uint64) uint32 {
	return uint32(tag<<c.tagShift) | uint32(set)<<c.lineShift
}

// lookup returns the way index of a hit in the set, or -1.
func (c *Cache) lookup(set int, tag uint64) int {
	base := set * c.geom.Ways
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			return base + w
		}
	}
	return -1
}

// victim picks the replacement way in the set: an invalid way if any,
// otherwise the least recently used.
func (c *Cache) victim(set int) int {
	base := set * c.geom.Ways
	best, bestUse := base, c.lines[base].lastUse
	for w := 0; w < c.geom.Ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			return base + w
		}
		if l.lastUse < bestUse {
			best, bestUse = base+w, l.lastUse
		}
	}
	return best
}

func (c *Cache) touch(idx int) {
	c.useCtr++
	c.lines[idx].lastUse = c.useCtr
	c.markLine(idx)
}

// dropHooks forgets line idx's armed hooks, and the map with the last of them.
func (c *Cache) dropHooks(idx int) {
	if delete(c.hooks, idx); len(c.hooks) == 0 {
		c.hooks = nil
	}
}

// disarm kills any armed hook on the line (replacement or overwrite).
func (c *Cache) disarm(idx int) {
	if len(c.hooks) == 0 {
		return
	}
	if _, armed := c.hooks[idx]; armed {
		c.stats.HookKills++
		c.dropHooks(idx)
		c.markLine(idx)
	}
}

// fireHooks applies armed flips to the stored line data (read hit).
func (c *Cache) fireHooks(idx int) {
	if len(c.hooks) == 0 {
		return
	}
	hb, armed := c.hooks[idx]
	if !armed {
		return
	}
	data := c.data(idx)
	for _, b := range hb {
		data[b/8] ^= 1 << (b % 8)
	}
	c.dropHooks(idx)
	c.stats.HookFires++
	c.markLine(idx)
}

// evict writes back a dirty victim and invalidates it.
func (c *Cache) evict(idx int) int {
	l := &c.lines[idx]
	cost := 0
	if l.valid {
		c.stats.Evictions++
		c.disarm(idx)
		if l.dirty {
			set := (idx / c.geom.Ways)
			cost += c.backing.StoreLine(c.addrOf(set, l.tag), c.data(idx))
			c.stats.Writebacks++
		}
		c.invalidate(idx)
	}
	return cost
}

// clearLine returns line idx to the state New leaves it in: a zero header
// (its hooks were disarmed first, or go with the whole map). Every
// invalidation goes through it, so two caches agree on a line that is valid
// in neither without comparing it.
func (c *Cache) clearLine(idx int) {
	c.lines[idx] = line{}
}

// invalidate drops line idx from the cache (the caller has disarmed its
// hooks and written it back if dirty).
func (c *Cache) invalidate(idx int) {
	c.clearLine(idx)
	c.resident.unmark(idx)
	c.markLine(idx)
}

// fill loads the line for addr into the victim way and returns (way,
// cost). The caller has already established a miss.
func (c *Cache) fill(addr uint32) (int, int) {
	set := c.setOf(addr)
	idx := c.victim(set)
	cost := c.evict(idx)
	l := &c.lines[idx]
	lineAddr := addr &^ uint32(c.geom.LineBytes-1)
	cost += c.backing.FetchLine(lineAddr, c.data(idx))
	l.tag = c.tagOf(addr)
	l.valid = true
	l.dirty = false
	c.resident.mark(idx)
	c.touch(idx) // touch marks the line for COW sync too
	return idx, cost
}

// AccessRead makes the line containing addr resident, firing or disarming
// fault hooks per the paper's semantics. Returns (hit, extra cycles spent
// below this level).
func (c *Cache) AccessRead(addr uint32) (bool, int) {
	c.stats.Accesses++
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		c.stats.Hits++
		c.touch(idx)
		c.fireHooks(idx) // read hit: the armed flip lands in the data
		return true, 0
	}
	c.stats.Misses++
	_, cost := c.fill(addr)
	return false, cost
}

// AccessWrite performs the policy state transition for a store touching
// the line containing addr. For ModeGlobal the paper's evict-on-write
// applies: a hit invalidates the line (disarming hooks); data travels to
// the backing level via StoreWord. For ModeLocal the line is
// write-allocated and marked dirty. Returns (hit, extra cycles, error);
// a store against a read-only mode — reachable only through
// fault-corrupted control flow — returns a typed *Error that the
// simulator records as a memory violation (Crash outcome).
func (c *Cache) AccessWrite(addr uint32, mode Mode) (bool, int, error) {
	c.stats.Accesses++
	set, tag := c.setOf(addr), c.tagOf(addr)
	idx := c.lookup(set, tag)
	switch mode {
	case ModeGlobal:
		if idx >= 0 {
			// Write hit: evict-on-write; the hook (if armed) dies with the
			// line, as the paper specifies for write hits.
			c.stats.Hits++
			c.disarm(idx)
			c.invalidate(idx)
			return true, 0, nil
		}
		c.stats.Misses++ // write miss: no allocate, nothing happens here
		return false, 0, nil
	case ModeLocal:
		if idx >= 0 {
			c.stats.Hits++
			c.touch(idx)  // marks the line for COW sync
			c.disarm(idx) // write hit overwrites the faulted data
			c.lines[idx].dirty = true
			return true, 0, nil
		}
		c.stats.Misses++
		idx, cost := c.fill(addr)
		c.lines[idx].dirty = true
		return false, cost, nil
	default:
		return false, 0, &Error{Op: "store",
			Reason: fmt.Sprintf("store in read-only mode %d at %#x", mode, addr)}
	}
}

// LoadWord returns the 32-bit word at addr from the resident line, or from
// the backing level if the line is not resident (e.g. after evict-on-write
// or for uncached traffic). It performs no state transition; callers pair
// it with a preceding AccessRead.
func (c *Cache) LoadWord(addr uint32) uint32 {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		return binary.LittleEndian.Uint32(c.data(idx)[addr&uint32(c.geom.LineBytes-1):])
	}
	return c.backing.PeekWord(addr)
}

// StoreWordLocal writes a word into the resident dirty line (ModeLocal
// path, after AccessWrite). If the line is unexpectedly absent the word
// goes to the backing level.
func (c *Cache) StoreWordLocal(addr uint32, v uint32) int {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		binary.LittleEndian.PutUint32(c.data(idx)[addr&uint32(c.geom.LineBytes-1):], v)
		c.lines[idx].dirty = true
		c.markLine(idx)
		return 0
	}
	return c.backing.StoreWord(addr, v)
}

// LoadWords is LoadWord for a warp memory instruction: every lane of mask
// reads the word at addrs[lane] into dst[lane]. Nothing it calls changes
// which lines are resident, so a run of lanes on one line shares a single
// set lookup — one per line for a coalesced or uniform access, one per lane
// only when every lane sits on a line of its own.
func (c *Cache) LoadWords(mask uint32, addrs, dst *[32]uint32) {
	lineMask := uint32(c.geom.LineBytes - 1)
	cur := ^uint32(0) // no line number reaches ^0: lines hold a word or more
	var data []byte   // the line numbered cur; nil when it is not resident
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & 31
		addr := addrs[lane]
		if ln := addr >> c.lineShift; ln != cur {
			cur, data = ln, c.PeekLine(addr)
		}
		if data == nil {
			dst[lane] = c.backing.PeekWord(addr)
			continue
		}
		dst[lane] = binary.LittleEndian.Uint32(data[addr&lineMask:])
	}
}

// StoreWordsLocal is StoreWordLocal for a warp memory instruction: every
// lane of mask, in lane order, writes src[lane] at addrs[lane]. As in
// LoadWords a run of lanes on one line shares one lookup, and the line is
// marked dirty and touched once per run; the words of an absent line go to
// the backing level one by one.
func (c *Cache) StoreWordsLocal(mask uint32, addrs, src *[32]uint32) {
	lineMask := uint32(c.geom.LineBytes - 1)
	cur := ^uint32(0)
	var data []byte
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & 31
		addr := addrs[lane]
		if ln := addr >> c.lineShift; ln != cur {
			cur, data = ln, nil
			if idx := c.lookup(c.setOf(addr), c.tagOf(addr)); idx >= 0 {
				data = c.data(idx)
				c.lines[idx].dirty = true
				c.markLine(idx)
			}
		}
		if data == nil {
			c.backing.StoreWord(addr, src[lane])
			continue
		}
		binary.LittleEndian.PutUint32(data[addr&lineMask:], src[lane])
	}
}

// Backing interface implementation, so a Cache can serve as the level
// below another cache (L1 over L2).

// FetchLine implements Backing: an L1 miss reads a full line through this
// cache.
func (c *Cache) FetchLine(addr uint32, dst []byte) int {
	hit, below := c.AccessRead(addr)
	cost := c.geom.HitCycles + below
	_ = hit
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		copy(dst, c.data(idx)[:len(dst)])
	} else {
		// Only possible if the fetch raced a pathological geometry; fall
		// back to the backing level.
		c.backing.FetchLine(addr, dst)
	}
	return cost
}

// StoreLine implements Backing: a dirty write-back from the level above is
// absorbed with write-allocate semantics.
func (c *Cache) StoreLine(addr uint32, src []byte) int {
	_, below, _ := c.AccessWrite(addr, ModeLocal) // ModeLocal cannot error
	cost := c.geom.HitCycles + below
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		copy(c.data(idx), src)
		c.lines[idx].dirty = true
		c.markLine(idx)
	}
	return cost
}

// StoreWord implements Backing: write-through traffic from the level above
// (global stores) is absorbed with write-allocate semantics, as the L2
// services all memory requests in the paper's configuration.
func (c *Cache) StoreWord(addr uint32, v uint32) int {
	_, below, _ := c.AccessWrite(addr, ModeLocal) // ModeLocal cannot error
	return c.geom.HitCycles + below + c.StoreWordLocal(addr, v)
}

// PeekWord implements Backing: read a word without state changes,
// consulting resident lines first.
func (c *Cache) PeekWord(addr uint32) uint32 { return c.LoadWord(addr) }

// Flush writes back all dirty lines and invalidates the cache (kernel
// completion on real GPUs flushes L1; campaigns flush between launches).
// Only resident lines are visited, in ascending index order: evicting an
// invalid line has no effect, so the write-backs, statistics and touched
// set are those of a walk over every line.
func (c *Cache) Flush() {
	c.resident.rangeSet(func(i int) { c.evict(i) })
}

// InjectOutcome describes what an injected bit flip did.
type InjectOutcome uint8

// Injection outcomes.
const (
	// InjectMasked: the target line was invalid; no effect.
	InjectMasked InjectOutcome = iota
	// InjectTag: a tag bit of a valid line was flipped in place.
	InjectTag
	// InjectHook: a data-bit hook was armed on a valid line.
	InjectHook
)

// String names the outcome.
func (o InjectOutcome) String() string {
	switch o {
	case InjectMasked:
		return "masked"
	case InjectTag:
		return "tag"
	case InjectHook:
		return "hook"
	}
	return "unknown"
}

// SizeBits returns the injectable size of the cache in bits.
func (c *Cache) SizeBits() int64 { return c.geom.SizeBits() }

// InjectBit flips one bit of the abstract cache layout: line i occupies
// bits [i*LineBits, (i+1)*LineBits); within a line, bits [0,TagBits) are
// the tag and the rest are data. Follows the paper's semantics: tag flips
// are immediate, data flips arm a read-hit hook, invalid lines mask the
// fault.
func (c *Cache) InjectBit(bit int64) (InjectOutcome, error) {
	if bit < 0 || bit >= c.SizeBits() {
		return InjectMasked, fmt.Errorf("cache: bit %d outside [0,%d)", bit, c.SizeBits())
	}
	lineBits := int64(c.geom.LineBits())
	idx := int(bit / lineBits)
	off := bit % lineBits
	l := &c.lines[idx]
	if !l.valid {
		return InjectMasked, nil
	}
	if off < config.TagBits {
		l.tag ^= uint64(1) << uint(off)
		c.stats.TagFlips++
		c.markLine(idx)
		return InjectTag, nil
	}
	if c.hooks == nil {
		c.hooks = make(map[int][]uint16)
	}
	c.hooks[idx] = append(c.hooks[idx], uint16(off-config.TagBits))
	c.stats.HookArms++
	c.markLine(idx)
	return InjectHook, nil
}

// PeekLine returns the resident line data containing addr, or nil if the
// line is not cached. No state change. Host-side device-memory reads
// overlay resident (possibly dirty) lines on the DRAM image with this.
func (c *Cache) PeekLine(addr uint32) []byte {
	set, tag := c.setOf(addr), c.tagOf(addr)
	if idx := c.lookup(set, tag); idx >= 0 {
		return c.data(idx)
	}
	return nil
}

// UpdateResident overwrites bytes [off, off+len(src)) of the line
// containing addr if it is resident, disarming any armed hook (the data is
// being replaced, like a write hit). Host-side device-memory writes keep
// resident lines coherent with this. Reports whether the line was resident.
func (c *Cache) UpdateResident(addr uint32, src []byte) bool {
	set, tag := c.setOf(addr), c.tagOf(addr)
	idx := c.lookup(set, tag)
	if idx < 0 {
		return false
	}
	c.disarm(idx)
	off := int(addr & uint32(c.geom.LineBytes-1))
	copy(c.data(idx)[off:], src)
	c.markLine(idx)
	return true
}

// ValidLines returns how many lines currently hold valid data (used by
// tests and occupancy diagnostics).
func (c *Cache) ValidLines() int { return c.resident.count() }
