package sim

import (
	"encoding/binary"
	"math/bits"

	"gpufi/internal/cache"
	"gpufi/internal/isa"
)

// execute performs the functional semantics of a non-control instruction
// for the active lanes and returns its latency in cycles. One dispatch per
// warp instruction: the operand rows are fetched once and isa.EvalWarp runs
// the opcode's loop over them.
func (c *core) execute(w *warp, in *isa.Instr, eff uint32) int {
	g := c.gpu
	switch {
	case in.Op.IsMem():
		return c.executeMem(w, in, eff)
	case in.Op == isa.OpS2R:
		dst := w.st.dst(in.Dst)
		for m := eff; m != 0; m &= m - 1 {
			lane := firstLane(m)
			if dst != nil {
				dst[lane] = c.specialReg(w, lane, in.SReg)
			}
			if g.tracer != nil && w.st.taint[lane] != 0 {
				c.traceRegOverwrite(w, lane, in.Dst)
			}
		}
		return g.cfg.ALULatency
	default:
		latency := g.cfg.ALULatency
		if in.Op.Class() == isa.ClassSFU {
			latency = g.cfg.SFULatency
		}
		if eff == 0 { // predicated off in every lane: issues, changes nothing
			return latency
		}
		st := w.st
		b := st.src(in.SrcB)
		if in.HasImm {
			var imm isa.Row
			for l := range imm {
				imm[l] = uint32(in.Imm)
			}
			b = &imm
		}
		// A *SETP leaves dst alone; a register write to RZ or past the
		// allocation lands in a row nobody reads.
		writesPred := in.Op.WritesPred()
		var dst *isa.Row
		if !writesPred {
			if dst = st.dst(in.Dst); dst == nil {
				dst = new(isa.Row)
			}
		}
		pred, ok := isa.EvalWarp(in.Op, in.Cond, eff, dst, st.src(in.SrcA), b, st.src(in.SrcC), st.pred(in.PSrc))
		if ok { // validated programs always are; anything else is a NOP
			if writesPred && in.PDst < isa.NumPreds {
				st.preds[in.PDst] = st.preds[in.PDst]&^eff | pred
			}
			if g.tracer != nil {
				for m := eff; m != 0; m &= m - 1 {
					if lane := firstLane(m); st.taint[lane] != 0 {
						c.traceALU(w, lane, in, writesPred)
					}
				}
			}
		}
		return latency
	}
}

// firstLane returns the lowest lane of a non-empty mask; `for m := mask;
// m != 0; m &= m - 1` visits a mask's lanes in lane order with it.
func firstLane(m uint32) int { return bits.TrailingZeros32(m) & (isa.WarpSize - 1) }

// specialReg returns the value of a special register for a lane.
func (c *core) specialReg(w *warp, lane int, sr isa.SReg) uint32 {
	g := c.gpu
	ctaID := w.cta.id
	switch sr {
	case isa.SRTidX:
		return uint32(w.lanes.tidX[lane])
	case isa.SRTidY:
		return uint32(w.lanes.tidY[lane])
	case isa.SRCtaidX:
		return uint32(ctaID % g.curGrid.X)
	case isa.SRCtaidY:
		return uint32(ctaID / g.curGrid.X)
	case isa.SRNtidX:
		return uint32(g.curBlock.X)
	case isa.SRNtidY:
		return uint32(g.curBlock.Y)
	case isa.SRNctaidX:
		return uint32(g.curGrid.X)
	case isa.SRNctaidY:
		return uint32(g.curGrid.Y)
	case isa.SRLaneID:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.slot)
	case isa.SRGtid:
		return uint32(w.lanes.gtid[lane])
	}
	return 0
}

// lineServiceInterval is the per-extra-line pipelining cost of a coalesced
// warp memory transaction.
const lineServiceInterval = 4

// executeMem performs a warp memory instruction: per-lane address
// generation, validation (violations abort the launch — the Crash
// outcome), line coalescing, cache routing with the configured policies,
// and data movement. The opcode is decoded once; every lane is validated
// before any line changes state, so a faulting lane — the first in lane
// order — leaves the caches as it found them.
func (c *core) executeMem(w *warp, in *isa.Instr, eff uint32) int {
	g := c.gpu
	if eff == 0 {
		return g.cfg.ALULatency
	}

	switch in.Op {
	case isa.OpLDC:
		// Constant/parameter path through the per-core L1 constant cache
		// (an extension target; the paper's gpuFI-4 could not inject it).
		idx := in.Imm
		if idx < 0 || idx%4 != 0 || int(idx/4) >= len(g.curParams) {
			c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
				Addr: uint32(idx), Space: "param"})
			return 0
		}
		v := g.curParams[idx/4]
		cost := g.cfg.ALULatency
		if c.l1c != nil {
			addr := g.paramBase + uint32(idx)
			_, below := c.l1c.AccessRead(addr)
			cost = g.cfg.L1C.HitCycles + below
			v = c.l1c.LoadWord(addr)
		}
		c.broadcastLoad(w, in.Dst, eff, v)
		return cost

	case isa.OpLDS, isa.OpSTS:
		return c.sharedAccess(w, in, eff)
	}

	// First-level cache for this access (Table II routing).
	l1 := c.l1d // may be nil (Kepler): access goes straight to L2
	if in.Op == isa.OpTLD {
		l1 = c.l1t
	}
	lineMask := uint32(g.cfg.L2.LineBytes - 1)
	if l1 != nil {
		lineMask = uint32(l1.Geometry().LineBytes - 1)
	}

	// One pass over the active lanes: effective address, validation, and
	// coalescing into line transactions in first-occurrence order.
	local := in.Op == isa.OpLDL || in.Op == isa.OpSTL
	base, imm := w.st.src(in.SrcA), uint32(in.Imm)
	var addrs, lineBuf [isa.WarpSize]uint32
	lines := lineBuf[:0]
	if local {
		// Local space: per-thread offset, translated into the carved DRAM
		// region (paper: local memory resides in device memory).
		for m := eff; m != 0; m &= m - 1 {
			lane := firstLane(m)
			addr := base[lane] + imm
			if addr%4 != 0 || (uint64(addr)+4 > uint64(g.localStep) && !g.cfg.LenientMemory) {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "local"})
				return 0
			}
			addr += w.lanes.localBase[lane]
			addrs[lane] = addr
			lines = coalesce(lines, addr&^lineMask)
		}
	} else {
		// Neighbouring lanes almost always address one allocation: test
		// each against the extent the previous lane matched, and search
		// the allocation table again only when it falls outside.
		var lo, hi uint32
		for m := eff; m != 0; m &= m - 1 {
			lane := firstLane(m)
			addr := base[lane] + imm
			ok := addr%4 == 0
			if ok && !g.cfg.LenientMemory && (addr < lo || uint64(addr)+4 > uint64(hi)) {
				lo, hi, ok = g.mem.Extent(addr)
				ok = ok && uint64(addr)+4 <= uint64(hi)
			}
			if !ok {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "global"})
				return 0
			}
			addrs[lane] = addr
			lines = coalesce(lines, addr&^lineMask)
		}
	}

	if in.Op.IsLoad() {
		return c.loadLines(w, in, eff, l1, lines, &addrs)
	}
	return c.storeLines(w, in, eff, l1, lines, &addrs, w.st.src(in.SrcC))
}

// coalesce appends line address la to a warp instruction's transactions
// unless it is already among them. The linear dedup keeps first-occurrence
// order (at most 32 candidates) without allocating; a lane on its
// predecessor's line, the common case, stops at the first comparison.
func coalesce(lines []uint32, la uint32) []uint32 {
	for i := len(lines) - 1; i >= 0; i-- {
		if lines[i] == la {
			return lines
		}
	}
	return append(lines, la)
}

// broadcastLoad writes v to register r of every lane in eff (LDC).
func (c *core) broadcastLoad(w *warp, r uint8, eff uint32, v uint32) {
	dst := w.st.dst(r)
	for m := eff; m != 0; m &= m - 1 {
		lane := firstLane(m)
		if dst != nil {
			dst[lane] = v
		}
		if c.gpu.tracer != nil && w.st.taint[lane] != 0 {
			c.traceRegOverwrite(w, lane, r)
		}
	}
}

// loadLines is the cache half of a global/local/texture load: the line
// transitions in first-occurrence order, then the words. Returns the
// instruction's latency.
func (c *core) loadLines(w *warp, in *isa.Instr, eff uint32, l1 *cache.Cache, lines []uint32, addrs *[isa.WarpSize]uint32) int {
	maxCost := 0
	for _, la := range lines {
		if cost := c.lineRead(l1, la); cost > maxCost {
			maxCost = cost
		}
	}
	// Only now, with every fill of the instruction done, is it settled
	// which lines are resident: a line a later fill evicted reads through.
	if dst := w.st.dst(in.Dst); dst != nil {
		words := l1
		if words == nil {
			words = c.gpu.l2
		}
		words.LoadWords(eff, addrs, (*[isa.WarpSize]uint32)(dst))
	}
	if tr := c.gpu.tracer; tr != nil {
		for m := eff; m != 0; m &= m - 1 {
			if lane := firstLane(m); w.st.taint[lane] != 0 || len(tr.memTaint) != 0 {
				c.traceLoad(w, lane, in.Dst, addrs[lane])
			}
		}
	}
	return maxCost + (len(lines)-1)*lineServiceInterval
}

// storeLines is loadLines for a global/local store of data.
func (c *core) storeLines(w *warp, in *isa.Instr, eff uint32, l1 *cache.Cache, lines []uint32, addrs *[isa.WarpSize]uint32, data *isa.Row) int {
	local := in.Op == isa.OpSTL
	mode := cache.ModeGlobal
	if local {
		mode = cache.ModeLocal
	}
	maxCost := 0
	for _, la := range lines {
		if cost := c.lineWrite(l1, la, mode); cost > maxCost {
			maxCost = cost
		}
	}
	// A local store writes the L1 line its lineWrite allocated. Everything
	// else — no L1, or a global store, written through below the (evicted)
	// L1 line — lands in the L2.
	words := c.gpu.l2
	if l1 != nil && local {
		words = l1
	}
	words.StoreWordsLocal(eff, addrs, (*[isa.WarpSize]uint32)(data))
	if tr := c.gpu.tracer; tr != nil {
		for m := eff; m != 0; m &= m - 1 {
			if lane := firstLane(m); w.st.taint[lane] != 0 || len(tr.memTaint) != 0 {
				c.traceStore(w, lane, in.SrcC, addrs[lane])
			}
		}
	}
	return maxCost + (len(lines)-1)*lineServiceInterval
}

// lineRead performs the timing/state access for one line read.
func (c *core) lineRead(l1 *cache.Cache, lineAddr uint32) int {
	if l1 == nil {
		_, below := c.gpu.l2.AccessRead(lineAddr)
		return c.gpu.l2.Geometry().HitCycles + below + c.gpu.l2QueueDelay(lineAddr)
	}
	hit, below := l1.AccessRead(lineAddr)
	cost := l1.Geometry().HitCycles + below
	if !hit {
		cost += c.gpu.l2QueueDelay(lineAddr) // the miss was serviced by an L2 bank
	}
	return cost
}

// lineWrite performs the policy state transition for one stored line. A
// store routed into a read-only cache mode (only reachable through
// fault-corrupted control flow) records a violation, which ends the run
// as a Crash instead of panicking the simulator.
func (c *core) lineWrite(l1 *cache.Cache, lineAddr uint32, mode cache.Mode) int {
	if l1 == nil {
		// No L1: the L2 absorbs the store with write-allocate.
		_, below, _ := c.gpu.l2.AccessWrite(lineAddr, cache.ModeLocal)
		return c.gpu.l2.Geometry().HitCycles + below + c.gpu.l2QueueDelay(lineAddr)
	}
	hit, below, werr := l1.AccessWrite(lineAddr, mode)
	if werr != nil {
		// A store routed into a read-only mode latches the violation but
		// does not stop the instruction: the remaining lines and lanes
		// complete, then the launch aborts at the end of the cycle.
		c.setViol(werr)
		return 0
	}
	cost := l1.Geometry().HitCycles + below
	if mode == cache.ModeGlobal {
		// Evict-on-write: the data travels to L2; charge one L2 access.
		_, l2below, _ := c.gpu.l2.AccessWrite(lineAddr, cache.ModeLocal)
		cost += c.gpu.l2.Geometry().HitCycles + l2below + c.gpu.l2QueueDelay(lineAddr)
	} else if !hit {
		cost += c.gpu.l2QueueDelay(lineAddr) // write-allocate fill from an L2 bank
	}
	return cost
}

// sharedAccess performs LDS/STS against the CTA's shared memory. Lanes run
// in order and the first bad address stops the instruction, the lanes
// before it already done.
func (c *core) sharedAccess(w *warp, in *isa.Instr, eff uint32) int {
	g := c.gpu
	load := in.Op == isa.OpLDS
	if !load && w.cta.sharedSmem {
		// An STS writes the CTA's shared memory: a COW fork CTA still
		// aliasing the snapshot's bank gets its private copy first.
		c.materializeSmem(w.cta)
	}
	smem := w.cta.smem
	st := w.st
	base, imm := st.src(in.SrcA), uint32(in.Imm)
	reg := st.src(in.SrcC) // STS data
	if load {
		reg = st.dst(in.Dst) // nil: the loaded word is discarded
	}
	tr := g.tracer
	watched := w.cta.watched
	for m := eff; m != 0; m &= m - 1 {
		lane := firstLane(m)
		addr := base[lane] + imm
		if uint64(addr)+4 > uint64(len(smem)) || addr%4 != 0 {
			c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
				Addr: addr, Space: "shared"})
			return 0
		}
		if watched {
			g.watch.smemAccess(w.cta, addr/4, load)
		}
		traced := tr != nil && (st.taint[lane] != 0 || len(tr.smemTaint) != 0)
		if load {
			if g.access != nil {
				c.noteSmemRead(addr)
			}
			if reg != nil {
				reg[lane] = binary.LittleEndian.Uint32(smem[addr:])
			}
			if traced {
				c.traceSharedLoad(w, lane, in.Dst, w.cta.id, addr)
			}
		} else {
			binary.LittleEndian.PutUint32(smem[addr:], reg[lane])
			if traced {
				c.traceSharedStore(w, lane, in.SrcC, w.cta.id, addr)
			}
		}
	}
	return g.cfg.SmemLatency
}

// pcOf reports the current pc of a warp for diagnostics.
func (c *core) pcOf(w *warp) int {
	if len(w.stack) == 0 {
		return -1
	}
	return int(w.stack[len(w.stack)-1].pc)
}
