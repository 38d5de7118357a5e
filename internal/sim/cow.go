package sim

// Copy-on-write resident state for fork vessels.
//
// A resident warp is three things: a warp struct (scheduler state: SIMT
// stack, stall and barrier flags, fetch line), a laneTable (which threads
// its lanes are — immutable once placed) and a laneState (what they hold:
// the register-major register file, predicate and exit masks, taint).
// Deep-copying all of it out of the snapshot on each restore would move —
// for a full RTX 2060 — megabytes of register file per experiment, almost
// all of it never touched before the experiment classifies. Under COW a
// restore copies only the warp and CTA structs, which are small and hold no
// per-lane arrays; the lane tables are shared forever, and the lane states
// and shared-memory banks stay aliased to the snapshot's until the first
// write materializes a private copy:
//
//   - core.step materializes the warp's lane state before executing, the
//     single choke point for all architectural thread writes (registers,
//     predicates, exits, taint): one struct assignment and one copy of the
//     register slab;
//   - sharedAccess materializes the CTA's shared memory before an STS;
//   - injectRegFile / injectShared materialize before flipping bits.
//
// Reads (liveMask for injection-site selection, LDS, local-memory bases)
// are served from the shared state. Warps that never issue again — exited
// warps, warps past the fault's blast radius when the experiment ends early
// — never pay for their copy. The snapshot side never mutates: templates
// are only written by capture, which gives the template fresh resident
// state and leaves the old lane-state and shared-memory slabs to whatever
// forks still alias them. So a fork needs its template only until its
// restore: the campaign engine recycles a template once every fork of its
// cluster has let go of it (GPU.OnRelease), and a fork restored from it may
// run on over storage the prefix captures into again.
//
// The page/line-granular COW for device memory and caches lives in
// internal/mem and internal/cache; this file owns the resident (SIMT)
// state and the per-core arenas a vessel materializes into. The arenas are
// part of the storage the device pool parks (pool.go): the next campaign's
// vessel inherits their capacity, scrubbed of this campaign's pointers.

// residentPool is a per-core arena for a vessel's private resident state.
// It is reset (not freed) at every restore and travels with the core through
// the device pool, so CTAs, warps, stacks, lane states and register slabs
// are allocated once per storage, not per experiment or per campaign. Carved
// sub-slices use three-index slicing so an append past a warp's reserved
// stack capacity reallocates to the heap instead of clobbering its neighbor.
type residentPool struct {
	ctas   []cta
	warps  []warp
	stack  []stackEntry
	states []laneState
	regs   []uint32
	smem   []byte
	wmap   map[*warp]*warp // snapshot warp -> vessel warp, scheduler order
}

// reset prepares the pool for one restore. The cta, warp and stack arenas
// are sized up front (their pointers must stay stable for the whole
// experiment); the lane-state, register and smem arenas fill lazily as
// warps materialize and may grow mid-experiment — old carvings stay valid
// on the superseded backing array.
func (p *residentPool) reset(nCTAs, nWarps, nStack int) {
	if cap(p.ctas) < nCTAs {
		p.ctas = make([]cta, 0, nCTAs)
	}
	p.ctas = p.ctas[:0]
	if cap(p.warps) < nWarps {
		p.warps = make([]warp, 0, nWarps)
	}
	p.warps = p.warps[:0]
	if cap(p.stack) < nStack {
		p.stack = make([]stackEntry, 0, nStack+nStack/2)
	}
	p.stack = p.stack[:0]
	p.states = p.states[:0]
	p.regs = p.regs[:0]
	p.smem = p.smem[:0]
	if p.wmap == nil {
		p.wmap = make(map[*warp]*warp, nWarps)
	} else {
		clear(p.wmap)
	}
}

// scrub drops every pointer the arenas hold: the COW views alias a
// snapshot's lane states, lane tables and shared memory, and parked storage
// must not keep the campaign it served reachable. Capacity stays.
func (p *residentPool) scrub() {
	clear(p.ctas[:cap(p.ctas)])
	clear(p.warps[:cap(p.warps)])
	clear(p.states[:cap(p.states)])
	clear(p.wmap)
}

func (p *residentPool) carveCTA() *cta {
	p.ctas = p.ctas[:len(p.ctas)+1]
	return &p.ctas[len(p.ctas)-1]
}

func (p *residentPool) carveWarp() *warp {
	p.warps = p.warps[:len(p.warps)+1]
	return &p.warps[len(p.warps)-1]
}

func (p *residentPool) carveStack(n int) []stackEntry {
	off := len(p.stack)
	p.stack = p.stack[: off+n : cap(p.stack)]
	return p.stack[off : off+n : off+n]
}

func (p *residentPool) carveState() *laneState {
	if len(p.states) == cap(p.states) {
		p.states = make([]laneState, 0, 2*cap(p.states)+1)
	}
	p.states = p.states[:len(p.states)+1]
	return &p.states[len(p.states)-1]
}

func (p *residentPool) carveRegs(n int) []uint32 {
	if len(p.regs)+n > cap(p.regs) {
		p.regs = make([]uint32, 0, 2*cap(p.regs)+n)
	}
	off := len(p.regs)
	p.regs = p.regs[: off+n : cap(p.regs)]
	return p.regs[off : off+n : off+n]
}

func (p *residentPool) carveSmem(n int) []byte {
	if len(p.smem)+n > cap(p.smem) {
		p.smem = make([]byte, 0, 2*cap(p.smem)+n)
	}
	off := len(p.smem)
	p.smem = p.smem[: off+n : cap(p.smem)]
	return p.smem[off : off+n : off+n]
}

// cowResidentInto rebuilds nc's resident CTAs and warps as copy-on-write
// views of c's (the snapshot core's): private CTA and warp structs from
// nc's pool, lane states and shared memory aliased to the snapshot until
// first write. The COW counterpart of cloneResidentInto.
func (c *core) cowResidentInto(nc *core) {
	if cap(nc.ctas) >= len(c.ctas) {
		nc.ctas = nc.ctas[:0]
	} else {
		nc.ctas = make([]*cta, 0, len(c.ctas))
	}
	if cap(nc.warps) >= len(c.warps) {
		nc.warps = nc.warps[:0]
	} else {
		nc.warps = make([]*warp, 0, len(c.warps))
	}
	if len(c.ctas) == 0 && len(c.warps) == 0 {
		return
	}
	if nc.pool == nil {
		nc.pool = &residentPool{}
	}
	p := nc.pool
	nStack := 0
	for _, w := range c.warps {
		nStack += len(w.stack)
	}
	p.reset(len(c.ctas), len(c.warps), nStack)
	shared := 0
	for _, b := range c.ctas {
		nb := p.carveCTA()
		ws := nb.warps
		if cap(ws) < len(b.warps) {
			ws = make([]*warp, 0, len(b.warps))
		} else {
			ws = ws[:0]
		}
		*nb = cta{
			id:         b.id,
			core:       nc,
			smem:       b.smem,
			warps:      ws,
			liveWarps:  b.liveWarps,
			sharedSmem: len(b.smem) > 0,
		}
		for _, w := range b.warps {
			nw := p.carveWarp()
			st := p.carveStack(len(w.stack))
			copy(st, w.stack)
			*nw = warp{
				cta:        nb,
				slot:       w.slot,
				lanes:      w.lanes,
				st:         w.st, // aliased; step materializes
				stack:      st,
				busyUntil:  w.busyUntil,
				atBarrier:  w.atBarrier,
				exited:     w.exited,
				lastIssue:  w.lastIssue,
				fetchLine:  w.fetchLine,
				fetchValid: w.fetchValid,
				sharedSlab: true,
			}
			nb.warps = append(nb.warps, nw)
			p.wmap[w] = nw
			shared++
		}
		nc.ctas = append(nc.ctas, nb)
	}
	for _, w := range c.warps {
		if nw, ok := p.wmap[w]; ok {
			nc.warps = append(nc.warps, nw)
		}
	}
	warpsShared.Add(int64(shared))
}

// materializeWarp gives w a private copy of its lane state before the
// first write. Must be called before any mutation through w.st; a pointer
// taken from the old (snapshot-owned) state goes stale for writing the
// moment it returns.
func (c *core) materializeWarp(w *warp) {
	if !w.sharedSlab {
		return
	}
	w.sharedSlab = false
	st := c.pool.carveState()
	*st = *w.st
	st.regs = c.pool.carveRegs(len(w.st.regs))
	copy(st.regs, w.st.regs)
	w.st = st
	warpsMaterialized.Inc()
	residentBytesCopied.Add(int64(len(st.regs)) * 4)
}

// materializeSmem gives b a private copy of its shared memory before the
// first write (STS or shared-memory injection).
func (c *core) materializeSmem(b *cta) {
	if !b.sharedSmem {
		return
	}
	b.sharedSmem = false
	sm := c.pool.carveSmem(len(b.smem))
	copy(sm, b.smem)
	b.smem = sm
	smemMaterialized.Inc()
	residentBytesCopied.Add(int64(len(sm)))
}
