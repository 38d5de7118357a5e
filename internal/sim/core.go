package sim

import (
	"fmt"
	"math/bits"

	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/isa"
)

// laneTable is the identity of a warp's 32 lanes, fixed at CTA placement.
// Nothing writes it afterwards, so the live GPU, every snapshot and every
// fork vessel share one table by pointer and no clone or restore copies it.
type laneTable struct {
	valid     uint32 // lanes that hold a thread; clear for padding past the CTA size
	tidX      [isa.WarpSize]int32
	tidY      [isa.WarpSize]int32
	gtid      [isa.WarpSize]int32  // flattened global thread id
	localBase [isa.WarpSize]uint32 // device address of the lane's local memory
}

// laneState is a warp's mutable architectural state: everything an executing
// instruction or an injection can write. It lives behind one pointer so that
// a fork warp can share the snapshot's until its first write (see cow.go)
// and so that copying a warp struct on restore moves none of it.
type laneState struct {
	// regs is the warp's register file, register-major: register r of lane l
	// is regs[r*32+l], so one operand of a warp instruction is 32 contiguous
	// words. It holds RegsPerThread rows, padding lanes included.
	regs []uint32

	// preds[p] has bit l set when predicate Pp of lane l is true. The entry
	// of PredPT is all ones and never written.
	preds [isa.NumPreds + 1]uint32

	exited uint32 // lanes whose thread has exited

	// taint marks registers carrying fault-corrupted data when propagation
	// tracing is on (bit min(reg,63) of the lane's word; all zero when
	// tracing is off). It rides along copies of the state, so snapshots and
	// forks preserve it.
	taint [isa.WarpSize]uint64
}

// zeroRow is what a source register field outside the warp's allocation
// reads as. Shared by every core and worker, never written.
var zeroRow isa.Row

// dst returns the row an instruction's destination register field writes,
// or nil when the write is discarded: RZ (255) and any other index beyond
// the warp's allocation.
func (s *laneState) dst(r uint8) *isa.Row {
	if i := int(r) * isa.WarpSize; i < len(s.regs) {
		return (*isa.Row)(s.regs[i:])
	}
	return nil
}

// src returns the row an instruction's source register field reads: zeros
// where dst discards. Fault-corrupted instructions can carry any operand
// field, and the pipeline reads unused source fields too.
func (s *laneState) src(r uint8) *isa.Row {
	if row := s.dst(r); row != nil {
		return row
	}
	return &zeroRow
}

// pred returns the lane mask of predicate p: all ones for PredPT, zero for
// an index no predicate register has.
func (s *laneState) pred(p uint8) uint32 {
	if int(p) < len(s.preds) {
		return s.preds[p]
	}
	return 0
}

// stackEntry is one SIMT reconvergence stack level.
type stackEntry struct {
	pc   int32
	rpc  int32 // reconvergence pc; -1 = only thread exit reconverges
	mask uint32
}

// warp is a group of 32 threads executing in lockstep under a SIMT stack.
// The struct holds the scheduler's view; the threads' own state sits behind
// lanes (who they are) and st (what they hold).
type warp struct {
	cta       *cta
	slot      int // hardware warp slot within the core
	lanes     *laneTable
	st        *laneState
	stack     []stackEntry
	busyUntil uint64
	atBarrier bool
	exited    bool
	lastIssue uint64

	// Instruction-fetch state: the line the warp last fetched from the
	// L1I; crossing into a new line charges a fetch access.
	fetchLine  uint32
	fetchValid bool

	// sharedSlab marks a COW fork warp whose st still aliases the
	// snapshot's; core.materializeWarp clears it on first write.
	sharedSlab bool

	// watched marks a warp holding a register an injection corrupted and no
	// instruction has read or fully overwritten yet (see watch.go). Never set
	// in a snapshot, so a restore clears it.
	watched bool
}

// liveMask returns the mask of threads that have not exited.
func (w *warp) liveMask() uint32 { return w.lanes.valid &^ w.st.exited }

// cta is a resident Compute Thread Array (thread block).
type cta struct {
	id        int // linear CTA index within the grid
	core      *core
	smem      []byte
	warps     []*warp
	liveWarps int

	// sharedSmem marks a COW fork CTA whose shared memory still aliases
	// the snapshot's; core.materializeSmem clears it on first write.
	sharedSmem bool

	// watched is warp.watched for the CTA's shared memory.
	watched bool
}

// core is one SIMT core (SM): resident CTAs, warp slots, L1 caches, and
// per-SM occupancy bookkeeping.
type core struct {
	id  int
	gpu *GPU

	l1d *cache.Cache // nil when the model has no L1 data cache
	l1t *cache.Cache
	l1c *cache.Cache // constant/parameter cache (nil if unconfigured)
	l1i *cache.Cache // instruction cache (nil if unconfigured)

	// corruptInstr switches this core to decode-from-cache instruction
	// fetch after an L1I injection, so corrupted instruction bits decode
	// and execute (or fault as illegal instructions).
	corruptInstr bool

	ctas        []*cta
	warps       []*warp // all resident warps, in placement order
	liveThreads int
	liveWarps   int // resident warps that have not fully exited

	// issueAt[i] is the first cycle warps[i] can issue at: its busyUntil, or
	// never while it has exited or waits at a barrier. The tick scans this
	// array instead of the warps, so it dereferences only the warp it
	// issues. Placement, retirement, barrier release and every restore or
	// capture set issueStale instead of editing it; the next reader rebuilds
	// it from the warps (syncIssue).
	issueAt    []uint64
	issueStale bool

	// readyAt, when non-zero, is the earliest cycle at which any warp on
	// this core can issue: a tick that found every warp stalled records it,
	// and the cycle loop skips the core until then. Issue, CTA placement,
	// launch reset and every snapshot restore clear it back to 0 (unknown),
	// so it is never later than the true next-ready cycle.
	readyAt uint64

	usedThreads int
	usedRegs    int
	usedSmem    int

	rr int // round-robin pointer for greedy-then-oldest issue

	// pool arenas the vessel-private resident state of a COW fork; nil
	// until the core's first copy-on-write restore (see cow.go).
	pool *residentPool

	// stop says the core raised a violation that ends its tick (fail): it
	// issues nothing more this cycle, and the tick clears the flag.
	stop bool
}

// never is the issueAt entry of a warp no passing cycle can make ready.
const never = ^uint64(0)

// newCore builds core id of a device's storage: its L1s over l2, no device
// yet (GPU.adopt points it at one).
func newCore(cfg *config.GPU, l2 *cache.Cache, id int) *core {
	c := &core{id: id}
	if cfg.L1D != nil {
		c.l1d = cache.New(cfg.L1D, l2)
	}
	c.l1t = cache.New(cfg.L1T, l2)
	if cfg.L1C != nil {
		c.l1c = cache.New(cfg.L1C, l2)
	}
	if cfg.L1I != nil {
		c.l1i = cache.New(cfg.L1I, l2)
	}
	return c
}

// l1s lists the core's first-level caches; a model without one has a nil.
func (c *core) l1s() [4]*cache.Cache { return [4]*cache.Cache{c.l1d, c.l1t, c.l1c, c.l1i} }

// reset drops all resident state (launch teardown). Cache contents persist
// across launches within a GPU lifetime, as on hardware.
func (c *core) reset() {
	c.ctas = nil
	c.warps = nil
	c.liveThreads = 0
	c.liveWarps = 0
	c.issueAt = c.issueAt[:0]
	c.issueStale = false
	c.readyAt = 0
	c.usedThreads = 0
	c.usedRegs = 0
	c.usedSmem = 0
	c.rr = 0
	c.corruptInstr = false
	c.stop = false
}

// placedWarp is a warp as tryPlaceCTA allocates it, in one piece with what
// only it points to: its lane state and the first levels of its SIMT stack
// (room for one divergence before the stack moves to an allocation of its
// own).
type placedWarp struct {
	warp
	state  laneState
	stack0 [4]stackEntry
}

// tryPlaceCTA places linear CTA ctaID on this core if the per-SM limits
// (CTAs, warp slots, threads, registers, shared memory) allow. Returns
// success. A block whose size is not a multiple of the warp size rounds up
// to whole warps, so the warp slots can run out before the threads do.
func (c *core) tryPlaceCTA(ctaID int) bool {
	g := c.gpu
	p := g.curProg
	ctaThreads := g.curBlock.Count()
	nWarps := (ctaThreads + isa.WarpSize - 1) / isa.WarpSize
	if len(c.ctas)+1 > g.cfg.MaxCTAsPerSM {
		return false
	}
	if len(c.warps)+nWarps > g.cfg.MaxWarpsPerSM() {
		return false
	}
	if c.usedThreads+ctaThreads > g.cfg.MaxThreadsPerSM {
		return false
	}
	if c.usedRegs+ctaThreads*p.RegsPerThread > g.cfg.RegistersPerSM {
		return false
	}
	if c.usedSmem+p.SmemBytes > g.cfg.SmemPerSM {
		return false
	}

	// One slab per kind of state for the whole CTA: placement costs a fixed
	// number of allocations however many threads the block has.
	b := &cta{id: ctaID, core: c, smem: make([]byte, p.SmemBytes)}
	warpRegs := p.RegsPerThread * isa.WarpSize
	b.warps = make([]*warp, nWarps)
	warps := make([]placedWarp, nWarps)
	tables := make([]laneTable, nWarps)
	regs := make([]uint32, nWarps*warpRegs)
	blockX := g.curBlock.X
	x, y := 0, 0 // thread tLinear's index in the block, kept without dividing
	for wi := range warps {
		lt, st := &tables[wi], &warps[wi].state
		for lane := 0; lane < isa.WarpSize; lane++ {
			tLinear := wi*isa.WarpSize + lane
			if tLinear >= ctaThreads {
				break
			}
			gtid := ctaID*ctaThreads + tLinear
			lt.valid |= 1 << uint(lane)
			lt.tidX[lane] = int32(x)
			lt.tidY[lane] = int32(y)
			if x++; x == blockX {
				x, y = 0, y+1
			}
			lt.gtid[lane] = int32(gtid)
			if g.localStep > 0 {
				lt.localBase[lane] = g.localBase + uint32(gtid)*g.localStep
			}
		}
		st.regs = regs[wi*warpRegs : (wi+1)*warpRegs : (wi+1)*warpRegs]
		st.preds[isa.PredPT] = ^uint32(0)
		w := &warps[wi].warp
		*w = warp{cta: b, slot: len(c.warps), lanes: lt, st: st, stack: warps[wi].stack0[:1]}
		w.stack[0] = stackEntry{pc: 0, rpc: -1, mask: lt.valid}
		b.warps[wi] = w
		c.warps = append(c.warps, w)
	}
	b.liveWarps = len(b.warps)
	if len(c.ctas) == 0 {
		g.occ.sms++
	}
	c.ctas = append(c.ctas, b)
	c.usedThreads += ctaThreads
	c.usedRegs += ctaThreads * p.RegsPerThread
	c.usedSmem += p.SmemBytes
	c.liveThreads += ctaThreads
	c.liveWarps += nWarps
	g.occ.ctas++
	g.occ.threads += ctaThreads
	g.occ.warps += nWarps
	c.issueStale = true
	c.readyAt = 0 // the new warps can issue next cycle
	return true
}

// retireCTA releases a fully exited CTA's resources.
func (c *core) retireCTA(b *cta) {
	g := c.gpu
	if b.watched {
		g.watch.retired(b)
	}
	ctaThreads := g.curBlock.Count()
	for i, x := range c.ctas {
		if x == b {
			c.ctas = append(c.ctas[:i], c.ctas[i+1:]...)
			break
		}
	}
	// Remove its warps from the issue list.
	kept := c.warps[:0]
	for _, w := range c.warps {
		if w.cta != b {
			kept = append(kept, w)
		}
	}
	c.warps = kept
	if c.rr >= len(c.warps) {
		c.rr = 0
	}
	c.usedThreads -= ctaThreads
	c.usedRegs -= ctaThreads * g.curProg.RegsPerThread
	c.usedSmem -= g.curProg.SmemBytes
	c.issueStale = true
	g.occ.ctas--
	if len(c.ctas) == 0 {
		g.occ.sms--
	}
	g.doneCTAs++
}

// issueTime is the warp's issueAt entry.
func (w *warp) issueTime() uint64 {
	if w.exited || w.atBarrier {
		return never
	}
	return w.busyUntil
}

// syncIssue rebuilds issueAt from the resident warps.
func (c *core) syncIssue() {
	c.issueAt = c.issueAt[:0]
	for _, w := range c.warps {
		c.issueAt = append(c.issueAt, w.issueTime())
	}
	c.issueStale = false
}

// nextReadyCycle returns the earliest cycle at which some warp on this
// core can issue, or 0 if none ever will (all exited or at barriers).
func (c *core) nextReadyCycle() uint64 {
	if c.issueStale {
		c.syncIssue()
	}
	next := never
	for _, t := range c.issueAt {
		next = min(next, t)
	}
	if next == never {
		return 0
	}
	return max(next, c.gpu.cycle+1)
}

// tick issues up to width (the configuration's IssuePerCycle) warp
// instructions using a greedy-then-oldest scheduler. Returns whether any
// warp was ready. The cycle loop calls it only for a core with resident
// warps whose readyAt has passed.
//
// Candidates come in (rr + scan) % n order, and rr moves after every
// issue, so a second issue in the same cycle looks from rr's new value on,
// scan+1 places further: the order every recorded journal was run in. The
// scheduler stays on a warp that is still ready after its issue. Every
// completed instruction leaves its warp busy, so that happens only in a
// cycle whose latched violation (lineWrite: a store routed into a
// read-only cache mode) aborts the launch, where it still decides which
// warp issues next.
func (c *core) tick(width int) bool {
	if c.issueStale {
		c.syncIssue()
	}
	c.readyAt = 0 // unknown again unless this scan finds every warp stalled
	cycle := c.gpu.cycle
	issued := 0
	wake := never // earliest issueAt among the warps scanned
	n := len(c.issueAt)
	idx := c.rr % n
	for scan := 0; scan < n && issued < width; scan++ {
		if t := c.issueAt[idx]; t > cycle {
			wake = min(wake, t)
			if idx++; idx == n {
				idx = 0
			}
			continue
		}
		w := c.warps[idx]
		c.step(w)
		issued++
		if w.exited || w.atBarrier || w.busyUntil > cycle {
			c.rr = (idx + 1) % n
		} else {
			c.rr = idx
		}
		if c.stop {
			c.stop = false
			return true
		}
		if c.issueStale {
			c.syncIssue() // a CTA retired or a barrier released
		} else {
			c.issueAt[idx] = w.issueTime()
		}
		if n = len(c.issueAt); n == 0 {
			break
		}
		idx = (c.rr + scan + 1) % n
	}
	if issued == 0 && wake != never {
		// Nothing issued, so the scan covered every warp and nothing it
		// read can change before the earliest of them wakes.
		c.readyAt = wake
	}
	return issued > 0
}

// guardMask returns the submask of m whose threads satisfy the guard.
func (w *warp) guardMask(in *isa.Instr, m uint32) uint32 {
	if !in.Guarded() {
		return m
	}
	p := w.st.pred(in.Guard)
	if in.GuardNeg {
		p = ^p
	}
	return m & p
}

// popReconverged pops stack entries whose pc reached their reconvergence
// point or whose mask emptied.
func (w *warp) popReconverged() {
	for len(w.stack) > 0 {
		top := &w.stack[len(w.stack)-1]
		if top.mask == 0 || (top.rpc >= 0 && top.pc == top.rpc) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// exitThreads retires the given lanes from the warp and all stack levels.
func (w *warp) exitThreads(mask uint32) {
	newly := mask & w.liveMask()
	w.st.exited |= newly
	c := w.cta.core
	n := bits.OnesCount32(newly)
	c.liveThreads -= n
	c.gpu.occ.threads -= n
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
}

// setViol records a violation unless an earlier one of the cycle stands.
// The cores tick one after another in core-ID order, so of the violations
// raised in one cycle the lowest core ID's is the launch's.
func (c *core) setViol(err error) {
	if c.gpu.violation == nil {
		c.gpu.violation = err
	}
}

// fail raises a violation that ends the instruction: the core stops
// issuing for the rest of the cycle.
func (c *core) fail(err error) {
	c.stop = true
	c.setViol(err)
}

// step executes one instruction for warp w (functional execution at issue
// time) and charges its latency.
func (c *core) step(w *warp) {
	if w.sharedSlab {
		// Executing mutates lane state (registers, predicates, exits,
		// taint): give a COW fork warp its private copy first.
		c.materializeWarp(w)
	}
	g := c.gpu
	p := g.curProg
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	if pc < 0 || int(pc) >= len(p.Instrs) {
		// Only reachable through corrupted control flow.
		c.fail(&IllegalInstr{Kernel: p.Name, PC: int(pc), Reason: "pc outside program"})
		return
	}
	fetchCost := c.fetchAccess(w, pc)
	in := &p.Instrs[pc]
	if c.corruptInstr {
		decoded, err := c.fetchDecode(pc)
		if err != nil {
			c.fail(err)
			return
		}
		in = decoded
	}
	g.kernelStat.Instructions++
	if g.TraceWriter != nil {
		fmt.Fprintf(g.TraceWriter, "%8d core%02d w%02d pc%4d mask %08x  %s\n",
			g.cycle, c.id, w.slot, pc, top.mask, in.String())
	}

	eff := top.mask & w.guardMask(in, top.mask)
	latency := g.cfg.ALULatency + fetchCost

	switch in.Op {
	case isa.OpBRA:
		taken := eff
		notTaken := top.mask &^ taken
		switch {
		case taken == 0:
			top.pc = pc + 1
		case notTaken == 0:
			top.pc = in.Target
		default:
			// Divergence: the current entry becomes the join entry.
			reconv := in.Reconv
			top.pc = reconv // -1 entries pop only via thread exit
			fall := stackEntry{pc: pc + 1, rpc: reconv, mask: notTaken}
			jump := stackEntry{pc: in.Target, rpc: reconv, mask: taken}
			w.stack = append(w.stack, fall, jump)
		}
	case isa.OpEXIT:
		w.exitThreads(eff)
		if rem := top.mask; rem != 0 {
			top.pc = pc + 1
		}
	case isa.OpBAR:
		w.atBarrier = true
		top.pc = pc + 1
		c.checkBarrier(w.cta)
	case isa.OpNOP:
		top.pc = pc + 1
	default:
		latency = c.execute(w, in, eff)
		if c.stop {
			return
		}
		top.pc = pc + 1
	}

	// The instruction completed for the lanes in eff: tell whoever follows
	// register reads and writes.
	if g.access != nil && eff != 0 {
		c.noteRegReads(in)
	}
	if w.watched {
		g.watch.issued(w, in, eff)
	}

	w.popReconverged()
	w.lastIssue = g.cycle
	w.busyUntil = g.cycle + uint64(latency)

	// Lanes leave the live set only through exitThreads, so only an EXIT
	// can empty it: every other instruction skips the 32-lane scan.
	if len(w.stack) == 0 || (in.Op == isa.OpEXIT && w.liveMask() == 0) {
		if !w.exited {
			w.exited = true
			c.liveWarps--
			g.occ.warps--
			b := w.cta
			b.liveWarps--
			if b.liveWarps == 0 {
				c.retireCTA(b)
			} else {
				// A warp exiting may release a barrier its siblings wait on.
				c.checkBarrier(b)
			}
		}
	}
}

// checkBarrier releases the CTA's barrier once every live warp has
// arrived. Warps with no live threads do not count (hardware semantics:
// exited warps do not participate).
func (c *core) checkBarrier(b *cta) {
	for _, w := range b.warps {
		if !w.exited && !w.atBarrier {
			return
		}
	}
	for _, w := range b.warps {
		if w.atBarrier {
			w.atBarrier = false
			w.busyUntil = c.gpu.cycle + 1
		}
	}
	c.issueStale = true
}

// fetchAccess charges the L1I access when the warp's fetch crosses into a
// new cache line. Returns the extra cycles (L1I misses reach the L2).
func (c *core) fetchAccess(w *warp, pc int32) int {
	if c.l1i == nil {
		return 0
	}
	g := c.gpu
	addr := g.progBase + uint32(pc)*isa.InstrBytes
	lineAddr := addr &^ uint32(c.l1i.Geometry().LineBytes-1)
	if w.fetchValid && w.fetchLine == lineAddr {
		return 0
	}
	w.fetchLine, w.fetchValid = lineAddr, true
	hit, below := c.l1i.AccessRead(lineAddr)
	if hit {
		return 0 // hit latency hidden by the fetch pipeline
	}
	return c.l1i.Geometry().HitCycles + below
}

// fetchDecode reads the instruction word at pc through the L1I (possibly
// corrupted by an injection) and decodes it. Structurally invalid words
// fault like hardware illegal instructions.
func (c *core) fetchDecode(pc int32) (*isa.Instr, error) {
	g := c.gpu
	p := g.curProg
	addr := g.progBase + uint32(pc)*isa.InstrBytes
	var buf [isa.InstrBytes]byte
	for i := 0; i < isa.InstrBytes; i += 4 {
		var v uint32
		if c.l1i != nil {
			v = c.l1i.LoadWord(addr + uint32(i))
		} else {
			v = g.l2.LoadWord(addr + uint32(i))
		}
		buf[i] = byte(v)
		buf[i+1] = byte(v >> 8)
		buf[i+2] = byte(v >> 16)
		buf[i+3] = byte(v >> 24)
	}
	in := isa.DecodeInstr(buf)
	if err := in.Sane(len(p.Instrs), p.RegsPerThread); err != nil {
		return nil, &IllegalInstr{Kernel: p.Name, PC: int(pc), Reason: err.Error()}
	}
	return &in, nil
}
