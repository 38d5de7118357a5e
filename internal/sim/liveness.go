package sim

import "gpufi/internal/isa"

// Dead on arrival. Most register-file faults are masked because the register
// they hit is never read again, and the kernel's control-flow graph says so
// at the injection instant: the watch (watch.go) need not simulate until the
// cell is overwritten or its lane exits to learn it. A register is live at a
// pc when some path from that pc reads it before an unpredicated write
// replaces it; a flip of a register that is not live where its lane stands
// can never be observed.
//
// The argument is the watch's own, made ahead of time. A thread's instruction
// stream is a path of the graph from the pc of the topmost SIMT-stack entry
// holding its lane: it follows each BRA to the target or falls through, a
// stack entry pops only where its pc equals the pc its lanes continue at
// below, and an EXIT ends it. Reads are counted the way the watch counts them
// (sourceRegs: every field the pipeline fetches, guard or no guard), so they
// can only be over-counted; a write kills only when no guard can predicate it
// off, so kills can only be under-counted. Both err towards "live", which
// leaves the verdict to the watch.

// liveIn is one program's table: bit r of liveIn[pc] is set when register r
// is live entering pc. Registers a thread can allocate are below isa.NumRegs,
// which a word holds; a field naming any other is not an injection site.
type liveIn []uint64

// newLiveIn solves the backward data-flow problem for p by iteration to the
// fixed point, pcs in descending order so that straight-line code settles in
// one sweep and each loop nest in one more.
func newLiveIn(p *isa.Program) liveIn {
	n := len(p.Instrs)
	use, kill := make([]uint64, n), make([]uint64, n)
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		for _, r := range sourceRegs(in) {
			if r < isa.NumRegs {
				use[pc] |= 1 << r
			}
		}
		if in.Op.WritesReg() && !in.Guarded() && in.Dst < isa.NumRegs {
			kill[pc] = 1 << in.Dst
		}
	}
	live := make(liveIn, n)
	at := func(pc int) uint64 {
		if pc < n {
			return live[pc]
		}
		return 0 // control falls off the program: an illegal instruction, not a read
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			in := &p.Instrs[pc]
			var out uint64
			switch {
			case in.Op == isa.OpEXIT && !in.Guarded():
			case in.Op == isa.OpBRA && !in.Guarded():
				out = at(int(in.Target))
			case in.Op == isa.OpBRA:
				out = at(int(in.Target)) | at(pc+1)
			default: // a guarded EXIT falls through in the lanes it spares
				out = at(pc + 1)
			}
			if v := use[pc] | out&^kill[pc]; v != live[pc] {
				live[pc], changed = v, true
			}
		}
	}
	return live
}

// deadFor reports whether register reg is dead for every one of lanes of w,
// each judged where it stands: at the pc of the topmost stack entry holding
// it. A lane on no entry, or on one whose pc is outside the program, is not
// judged dead.
func (l liveIn) deadFor(w *warp, lanes uint32, reg uint8) bool {
	if reg >= isa.NumRegs {
		return false
	}
	for k := len(w.stack) - 1; k >= 0 && lanes != 0; k-- {
		e := &w.stack[k]
		if e.mask&lanes == 0 {
			continue
		}
		if e.pc < 0 || int(e.pc) >= len(l) || l[e.pc]>>reg&1 != 0 {
			return false
		}
		lanes &^= e.mask
	}
	return lanes == 0
}
