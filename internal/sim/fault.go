package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/isa"
)

// Injection-site selection counts the live candidates, draws one index
// and walks to it, in core -> warp -> lane order: no candidate list is
// built. The per-core liveThreads and liveWarps counters give the count and
// let the walk skip whole cores.

// liveThreadCount returns how many live (created, not exited) threads are
// resident — the candidate pool for register-file and local-memory
// injections.
func (g *GPU) liveThreadCount() int {
	n := 0
	for _, c := range g.cores {
		n += c.liveThreads
	}
	return n
}

// liveThreadAt returns the warp and lane of the i-th live thread.
func (g *GPU) liveThreadAt(i int) (*warp, int) {
	for _, c := range g.cores {
		if i >= c.liveThreads {
			i -= c.liveThreads
			continue
		}
		for _, w := range c.warps {
			if w.exited {
				continue
			}
			live := w.liveMask()
			if n := bits.OnesCount32(live); i >= n {
				i -= n
				continue
			}
			for ; i > 0; i-- {
				live &= live - 1
			}
			return w, firstLane(live)
		}
	}
	return nil, -1
}

// liveWarpCount returns how many resident warps have not fully exited.
func (g *GPU) liveWarpCount() int {
	n := 0
	for _, c := range g.cores {
		n += c.liveWarps
	}
	return n
}

// liveWarpAt returns the i-th live warp.
func (g *GPU) liveWarpAt(i int) *warp {
	for _, c := range g.cores {
		if i >= c.liveWarps {
			i -= c.liveWarps
			continue
		}
		for _, w := range c.warps {
			if !w.exited {
				if i == 0 {
					return w
				}
				i--
			}
		}
	}
	return nil
}

// smemCTACount returns how many resident CTAs own shared memory.
func (g *GPU) smemCTACount() int {
	n := 0
	for _, c := range g.cores {
		for _, b := range c.ctas {
			if len(b.smem) > 0 {
				n++
			}
		}
	}
	return n
}

// smemCTAAt returns the i-th resident CTA that owns shared memory.
func (g *GPU) smemCTAAt(i int) *cta {
	for _, c := range g.cores {
		for _, b := range c.ctas {
			if len(b.smem) > 0 {
				if i == 0 {
					return b
				}
				i--
			}
		}
	}
	return nil
}

// pickCore draws one core among those of spec.CoreMask (every core when
// the mask is empty) that has the target cache, or -1 with no draw when
// none does.
func (g *GPU) pickCore(spec *FaultSpec, rng *rand.Rand, has func(*core) bool) int {
	n := len(spec.CoreMask)
	if n == 0 {
		n = len(g.cores)
	}
	// candidate k is CoreMask[k], or core k under an empty mask.
	eligible := func(k int) (int, bool) {
		id := k
		if len(spec.CoreMask) > 0 {
			id = spec.CoreMask[k]
		}
		return id, id >= 0 && id < len(g.cores) && has(g.cores[id])
	}
	count := 0
	for k := 0; k < n; k++ {
		if _, ok := eligible(k); ok {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	i := rng.Intn(count)
	for k := 0; k < n; k++ {
		if id, ok := eligible(k); ok {
			if i == 0 {
				return id
			}
			i--
		}
	}
	return -1
}

// injectRegFile flips the spec's bit positions in a random active thread's
// allocated registers (or every thread of a random active warp).
func (g *GPU) injectRegFile(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand) {
	positions := g.applyECC(spec, rec, eccWordLinear)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		return
	}
	flip := func(w *warp, lane int) {
		st := w.st
		for _, pos := range positions {
			reg := int(pos / 32)
			if i := reg*isa.WarpSize + lane; i < len(st.regs) {
				st.regs[i] ^= 1 << uint(pos%32)
				g.watch.seedReg(w, lane, reg, uint(pos%32))
				if g.tracer != nil {
					g.tracer.seedReg(st, lane, reg)
				}
			}
		}
	}
	if spec.WarpWide {
		n := g.liveWarpCount()
		if n == 0 {
			rec.Detail = "no live warp"
			return
		}
		w := g.liveWarpAt(rng.Intn(n))
		// Flipping register bits writes lane state: a COW fork warp still
		// sharing the snapshot's gets its private copy first.
		w.cta.core.materializeWarp(w)
		for m := w.liveMask(); m != 0; m &= m - 1 {
			flip(w, firstLane(m))
		}
		rec.Applied = true
		rec.Core = w.cta.core.id
		rec.Warp = w.slot
		rec.Detail = fmt.Sprintf("warp-wide regfile flip x%d", len(positions))
		return
	}
	n := g.liveThreadCount()
	if n == 0 {
		rec.Detail = "no live thread"
		return
	}
	w, lane := g.liveThreadAt(rng.Intn(n))
	w.cta.core.materializeWarp(w)
	flip(w, lane)
	rec.Applied = true
	rec.Core = w.cta.core.id
	rec.Warp = w.slot
	rec.Thread = int(w.lanes.gtid[lane])
	rec.Detail = fmt.Sprintf("regfile flip x%d", len(positions))
}

// injectLocal flips bits in a random active thread's local memory (or a
// whole warp's). Local memory lives in device DRAM; a cached dirty copy in
// the L1D may mask the flip, exactly as on hardware.
func (g *GPU) injectLocal(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand) {
	if g.localStep == 0 {
		rec.Detail = "kernel uses no local memory"
		return
	}
	positions := g.applyECC(spec, rec, eccWordLinear)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		return
	}
	flip := func(w *warp, lane int) {
		base := w.lanes.localBase[lane]
		for _, pos := range positions {
			if byteOff := uint32(pos / 8); byteOff < g.localStep {
				g.mem.FlipBit(base+byteOff, uint(pos%8))
				g.watch.close() // device memory is not watched
				if g.tracer != nil {
					g.tracer.seedMem(base + byteOff)
				}
			}
		}
	}
	if spec.WarpWide {
		n := g.liveWarpCount()
		if n == 0 {
			rec.Detail = "no live warp"
			return
		}
		w := g.liveWarpAt(rng.Intn(n))
		for m := w.liveMask(); m != 0; m &= m - 1 {
			flip(w, firstLane(m))
		}
		rec.Applied = true
		rec.Core = w.cta.core.id
		rec.Warp = w.slot
		rec.Detail = fmt.Sprintf("warp-wide local flip x%d", len(positions))
		return
	}
	n := g.liveThreadCount()
	if n == 0 {
		rec.Detail = "no live thread"
		return
	}
	w, lane := g.liveThreadAt(rng.Intn(n))
	flip(w, lane)
	rec.Applied = true
	rec.Core = w.cta.core.id
	rec.Warp = w.slot
	rec.Thread = int(w.lanes.gtid[lane])
	rec.Detail = fmt.Sprintf("local flip x%d", len(positions))
}

// injectShared flips bits in the shared memory of one or more random
// active CTAs (the same flips per CTA, per the paper's Table IV).
func (g *GPU) injectShared(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand) {
	nCTAs := g.smemCTACount()
	if nCTAs == 0 {
		rec.Detail = "no active CTA with shared memory"
		return
	}
	positions := g.applyECC(spec, rec, eccWordLinear)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		return
	}
	n := spec.Blocks
	if n <= 0 {
		n = 1
	}
	if n > nCTAs {
		n = nCTAs
	}
	perm := rng.Perm(nCTAs)[:n]
	for _, pi := range perm {
		b := g.smemCTAAt(pi)
		if b.sharedSmem {
			// The flip writes shared memory a COW fork may still share
			// with its snapshot: materialize the private bank first.
			b.core.materializeSmem(b)
		}
		for _, pos := range positions {
			byteOff := pos / 8
			if byteOff < int64(len(b.smem)) {
				b.smem[byteOff] ^= 1 << uint(pos%8)
				g.watch.seedSmem(b, uint32(byteOff/4))
				if g.tracer != nil {
					g.tracer.seedSmem(b.id, uint32(byteOff))
				}
			}
		}
	}
	first := g.smemCTAAt(perm[0])
	rec.Applied = true
	rec.CTA = first.id
	rec.Core = first.core.id
	rec.Detail = fmt.Sprintf("shared flip x%d in %d block(s)", len(positions), n)
}

// injectL1 flips bits in the L1 data or texture cache of a random core
// drawn from the spec's core mask.
func (g *GPU) injectL1(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand, data bool) {
	id := g.pickCore(spec, rng, func(c *core) bool { return !data || c.l1d != nil })
	if id < 0 {
		rec.Detail = "no eligible core (cache absent)"
		return
	}
	var target *cache.Cache
	if data {
		target = g.cores[id].l1d
	} else {
		target = g.cores[id].l1t
	}
	wordOf := eccWordCacheLine(int64(target.Geometry().LineBits()), config.TagBits)
	positions := g.applyECC(spec, rec, wordOf)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		rec.Core = id
		return
	}
	rec.Applied = true
	rec.Core = id
	rec.Detail, _ = g.injectCacheBits(target, positions)
}

// injectL2 flips bits in the device L2, addressed as a single entity.
func (g *GPU) injectL2(spec *FaultSpec, rec *InjectionRecord) {
	wordOf := eccWordCacheLine(int64(g.l2.Geometry().LineBits()), config.TagBits)
	positions := g.applyECC(spec, rec, wordOf)
	rec.Applied = true
	if g.cfg.ECC && len(positions) == 0 {
		return
	}
	rec.Detail, _ = g.injectCacheBits(g.l2, positions)
}

// injectL1C flips bits in the L1 constant cache of a random eligible core
// (extension target).
func (g *GPU) injectL1C(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand) {
	id := g.pickCore(spec, rng, func(c *core) bool { return c.l1c != nil })
	if id < 0 {
		rec.Detail = "no eligible core (constant cache absent)"
		return
	}
	target := g.cores[id].l1c
	wordOf := eccWordCacheLine(int64(target.Geometry().LineBits()), config.TagBits)
	positions := g.applyECC(spec, rec, wordOf)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		rec.Core = id
		return
	}
	rec.Applied = true
	rec.Core = id
	rec.Detail, _ = g.injectCacheBits(target, positions)
}

// injectL1I flips bits in the L1 instruction cache of a random eligible
// core (extension target) and, when a flip landed on a valid line, switches
// that core to decode-from-cache fetch so the corruption takes architectural
// effect. Flips that all fell on invalid lines corrupted nothing, and the
// core is left as it was.
func (g *GPU) injectL1I(spec *FaultSpec, rec *InjectionRecord, rng *rand.Rand) {
	id := g.pickCore(spec, rng, func(c *core) bool { return c.l1i != nil })
	if id < 0 {
		rec.Detail = "no eligible core (instruction cache absent)"
		return
	}
	target := g.cores[id].l1i
	wordOf := eccWordCacheLine(int64(target.Geometry().LineBits()), config.TagBits)
	positions := g.applyECC(spec, rec, wordOf)
	if g.cfg.ECC && len(positions) == 0 {
		rec.Applied = true
		rec.Core = id
		return
	}
	rec.Applied = true
	rec.Core = id
	var landed bool
	rec.Detail, landed = g.injectCacheBits(target, positions)
	if !landed {
		return
	}
	core := g.cores[id]
	core.corruptInstr = true
	// Force every warp on the core to refetch so armed hooks can fire.
	for _, w := range core.warps {
		w.fetchValid = false
	}
}

// injectCacheBits flips the positions in c and describes where they fell.
// landed reports that at least one changed the cache: a tag flipped or a
// data-bit hook armed, which the liveness watch does not follow.
func (g *GPU) injectCacheBits(c *cache.Cache, positions []int64) (detail string, landed bool) {
	var masked, tags, hooks int
	for _, pos := range positions {
		out, err := c.InjectBit(pos % c.SizeBits())
		if err != nil {
			continue
		}
		switch out {
		case cache.InjectMasked:
			masked++
		case cache.InjectTag:
			tags++
		case cache.InjectHook:
			hooks++
		}
	}
	// Cache arrays are not cell-tracked by the tracer; flag the injection
	// so consumption is judged from the cache's own hook counters. Flips
	// that only landed on invalid lines cannot be read at all.
	landed = tags+hooks > 0
	if landed {
		g.watch.close()
		if g.tracer != nil {
			g.tracer.markCacheInjection()
		}
	}
	return fmt.Sprintf("cache flips: %d tag, %d hook, %d invalid-line", tags, hooks, masked), landed
}
