package sim

import "gpufi/internal/isa"

// The fault-free access log records, per kernel launch, the LAST cycle at
// which each architectural cell of the adaptive planner's analytic
// structures is read: every register index (max over all threads) and
// every shared-memory word offset (max over all CTAs). The planner's
// pre-pass (core.AccessPrepass) runs the application once with the log
// enabled; a fault injected into cell x at cycle c with lastRead[x] < c
// can never be architecturally consumed — register and shared-memory
// state dies with its launch — so the experiment is provably Masked
// without simulation, with the exact cycle count of the golden run.
//
// The log is deliberately conservative in the only safe direction: it
// counts every pipeline source-field read (even ones an op ignores) and
// aggregates over threads/CTAs, so it can only over-estimate consumption
// and never claims Masked for a fault that could propagate.
//
// Like the propagation tracer, the log costs nothing when disabled: every
// hook sits behind a `g.access != nil` guard on the simulator's hot path.
type accessLog struct {
	regLast  [256]uint64       // last read cycle per register index, 0 = never
	smemLast map[uint32]uint64 // last read cycle per shared word offset
	launches []LaunchAccess
}

// LaunchAccess is the finalized access log of one completed kernel
// launch, aligned with the KernelStats cycle window of the same
// invocation.
type LaunchAccess struct {
	Kernel string
	Start  uint64 // the launch's start cycle (== its CycleWindow.Start)
	End    uint64 // the launch's end cycle (== its CycleWindow.End)
	// RegLast[r] is the last cycle any thread read register r, 0 when the
	// launch never read it.
	RegLast []uint64
	// SmemLast[w] is the last cycle any CTA read shared-memory word w
	// (byte offset w*4); absent words were never read.
	SmemLast map[uint32]uint64
}

// EnableAccessLog switches on fault-free access logging for subsequent
// launches. Intended for a dedicated golden run; the log is not part of
// snapshots and does not interact with fault injection.
func (g *GPU) EnableAccessLog() {
	g.access = &accessLog{smemLast: make(map[uint32]uint64)}
}

// AccessLogging reports whether the access log is enabled.
func (g *GPU) AccessLogging() bool { return g.access != nil }

// LaunchAccesses returns the per-launch access logs recorded so far, in
// launch order.
func (g *GPU) LaunchAccesses() []LaunchAccess {
	if g.access == nil {
		return nil
	}
	return g.access.launches
}

// beginLaunch resets the per-launch accumulators.
func (a *accessLog) beginLaunch() {
	a.regLast = [256]uint64{}
	if len(a.smemLast) > 0 {
		a.smemLast = make(map[uint32]uint64)
	}
}

// endLaunch snapshots the accumulators into a LaunchAccess record.
func (a *accessLog) endLaunch(kernel string, start, end uint64) {
	maxReg := -1
	for r := 255; r >= 0; r-- {
		if a.regLast[r] != 0 {
			maxReg = r
			break
		}
	}
	la := LaunchAccess{Kernel: kernel, Start: start, End: end,
		SmemLast: a.smemLast}
	if maxReg >= 0 {
		la.RegLast = append([]uint64(nil), a.regLast[:maxReg+1]...)
	}
	a.launches = append(a.launches, la)
	a.smemLast = make(map[uint32]uint64)
}

// sourceRegs returns the register fields the pipeline reads for in, RegRZ
// standing for a field it does not: the address operand of a load, address and
// data operands of a store, and all three source fields of anything the ALU
// or SFU executes, whether or not the opcode uses them (SrcB not when the
// immediate replaces it). Control instructions, S2R and LDC read no register.
// It is deliberately the widest reading, and the one rule both the access log
// and the liveness watch (watch.go) go by: either can only over-count reads.
func sourceRegs(in *isa.Instr) [3]uint8 {
	switch {
	case in.Op == isa.OpLDC || in.Op == isa.OpS2R || in.Op.Class() == isa.ClassCtrl:
		return [3]uint8{isa.RegRZ, isa.RegRZ, isa.RegRZ}
	case in.Op.IsLoad():
		return [3]uint8{in.SrcA, isa.RegRZ, isa.RegRZ}
	case in.Op.IsStore() || in.HasImm:
		return [3]uint8{in.SrcA, isa.RegRZ, in.SrcC}
	}
	return [3]uint8{in.SrcA, in.SrcB, in.SrcC}
}

// noteRegReads records the source-field reads of one warp instruction at the
// current cycle; one note per instruction suffices since the cycle is shared.
// RZ reads as a constant zero and is not a fault site.
func (c *core) noteRegReads(in *isa.Instr) {
	for _, r := range sourceRegs(in) {
		if r != isa.RegRZ {
			c.gpu.access.regLast[r] = c.gpu.cycle
		}
	}
}

// noteSmemRead records a shared-memory word read at the current cycle.
func (c *core) noteSmemRead(addr uint32) {
	c.gpu.access.smemLast[addr/4] = c.gpu.cycle
}

// RegReadAfter reports whether register r is read at or after cycle c —
// the negation of the analytic-masked criterion. Injection applies armed
// faults once the global clock reaches their cycle, before cores tick,
// so a read in the same cycle observes the flip and counts as
// consumption.
func (la *LaunchAccess) RegReadAfter(r int, c uint64) bool {
	if r < 0 || r >= len(la.RegLast) {
		return false
	}
	last := la.RegLast[r]
	return last != 0 && last >= c
}

// SmemWordReadAfter reports whether shared word w is read at or after
// cycle c.
func (la *LaunchAccess) SmemWordReadAfter(w uint32, c uint64) bool {
	last, ok := la.SmemLast[w]
	return ok && last >= c
}
