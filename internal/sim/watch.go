package sim

import (
	"errors"

	"gpufi/internal/isa"
)

// An experiment ends when its fault does. Most injected faults never reach
// anything: the flip lands on an invalid cache line, ECC corrects it, or the
// register it corrupted is overwritten before any instruction reads it. From
// that moment the simulator is deterministic state for state with the
// fault-free run, and simulating the rest only reproduces the golden output.
// A device told to (StopWhenGolden — the campaign engine, which holds the
// golden run to fill the rest in with) ends the launch as soon as that is
// proved, by one of three rules:
//
//   - inert: every armed fault has fired and none changed simulated state —
//     no live target, every flip corrected, every cache flip on an invalid
//     line. Nothing ever differed.
//   - dead unread: all that the fired faults changed is a set of register
//     and shared-memory cells (the seeds), no instruction has read any of
//     them, and each is gone: overwritten by a write that was not predicated
//     off, or owned by a lane that exited or a CTA that retired. The cells
//     that differed can no longer be observed, and nothing derived from them
//     exists.
//   - dead on arrival: the seeds are registers, and at the instant of the
//     flip the kernel's own control-flow graph says none of them is live
//     where its lane stands (liveness.go). It is the rule above decided ahead
//     of time: the run stops in the cycle of the injection, before any warp
//     issues, with the flips taken back out.
//
// A device that stopped by a rule that leaves no trace — every rule but a
// seed that went with its exiting lane or retiring CTA — is, cell for cell,
// the fault-free device between two cycles of the launch, and the next
// experiment may carry on from it instead of restoring a snapshot (Refork).
//
// Each is a proof, not a prediction. A read counts through any source field
// the pipeline fetches (address and store-data operands included, fields an
// opcode ignores too — sourceRegs, the rule the access log uses), so the
// watch can only err towards running on. Faults it cannot follow — a cache
// tag flip, an armed data-bit hook, a local-memory flip — and any seed once
// read close the watch for good: the run goes to its last cycle as before.

// StopReason says why a device ended a faulty run before its last cycle.
type StopReason uint8

const (
	// NotStopped: the run went, or is going, to its end.
	NotStopped StopReason = iota
	// StopInert: every armed fault fired and none changed simulated state.
	StopInert
	// StopOverwritten: the last corrupted cell died by a clean write, unread.
	StopOverwritten
	// StopRetired: the last corrupted cell went unread with its lane or CTA.
	StopRetired
	// StopDead: every corrupted register was dead where its lane stood when
	// the fault fired; the run ended in that cycle, before any warp issued.
	StopDead
)

// ErrGoldenRun is what a launch returns when the device stopped it because
// the rest of the run is provably the fault-free one, and what every later
// launch on the device returns at once. It is not a failure of the simulated
// machine: Stopped tells the two apart even when an application wrapper
// swallowed the error.
var ErrGoldenRun = errors.New("sim: run stopped: the rest of it is the golden run")

// watch states. A fault that fires on a device that was not told to stop
// closes the watch too, so a snapshot of that device is known to be off the
// golden run.
const (
	watchIdle   = uint8(iota) // no fault has fired
	watchOpen                 // all that fired faults changed is the seeds below, none of them read
	watchClosed               // the state may differ from golden in ways the seeds do not cover
)

// regSeed is one corrupted register of one warp: the lanes whose copy is
// still corrupted and unread.
type regSeed struct {
	w     *warp
	lanes uint32
	reg   uint8
}

// regFlip is one bit pattern an injection XORed into one word of a warp's
// register slab: what a dead-on-arrival stop takes back out.
type regFlip struct {
	w    *warp
	word int32
	mask uint32
}

// smemSeed is one corrupted shared-memory word of one resident CTA; b is nil
// once the word is dead.
type smemSeed struct {
	b    *cta
	word uint32
}

// faultWatch follows the seed cells of a device's fired faults. It lives in
// the GPU by value and keeps its slices across experiments, so a vessel
// allocates nothing for it once warm.
type faultWatch struct {
	state   uint8
	scarred bool       // a seed went with its lane or CTA: an exited lane's register still differs
	live    int        // seeds not yet dead
	last    StopReason // what killed the seed that died last; StopInert while open and none has
	born    uint64     // the cycle the watch opened in
	regs    []regSeed
	smem    []smemSeed
	flips   []regFlip // every register flip since the watch opened

	// liveIn caches the liveness table of each program a fault has fired in.
	// It outlives reset: a vessel computes a kernel's table once.
	liveIn map[*isa.Program]liveIn
}

// reset forgets everything: the state of a device no fault has fired on.
func (fw *faultWatch) reset() {
	fw.drop()
	fw.state = watchIdle
}

// close gives up on proving anything: the run goes to its end.
func (fw *faultWatch) close() {
	fw.drop()
	fw.state = watchClosed
}

// drop clears the seeds and the per-warp and per-CTA flags that route
// instructions here, releasing the pointers into resident state.
func (fw *faultWatch) drop() {
	for i := range fw.regs {
		fw.regs[i].w.watched = false
	}
	for i := range fw.smem {
		if b := fw.smem[i].b; b != nil {
			b.watched = false
		}
	}
	clear(fw.regs)
	clear(fw.smem)
	clear(fw.flips)
	fw.regs, fw.smem, fw.flips = fw.regs[:0], fw.smem[:0], fw.flips[:0]
	fw.live, fw.last, fw.scarred = 0, NotStopped, false
}

// seedReg records that an injection flipped bit of register reg in lane of w.
func (fw *faultWatch) seedReg(w *warp, lane, reg int, bit uint) {
	if fw.state != watchOpen {
		return
	}
	fw.flips = append(fw.flips, regFlip{w: w, word: int32(reg*isa.WarpSize + lane), mask: 1 << bit})
	w.watched = true
	for i := range fw.regs {
		if s := &fw.regs[i]; s.w == w && int(s.reg) == reg {
			if s.lanes == 0 {
				fw.live++
			}
			s.lanes |= 1 << uint(lane)
			return
		}
	}
	fw.regs = append(fw.regs, regSeed{w: w, lanes: 1 << uint(lane), reg: uint8(reg)})
	fw.live++
}

// seedSmem records that an injection flipped a bit of b's shared-memory word.
func (fw *faultWatch) seedSmem(b *cta, word uint32) {
	if fw.state != watchOpen {
		return
	}
	b.watched = true
	for i := range fw.smem {
		if s := &fw.smem[i]; s.b == b && s.word == word {
			return
		}
	}
	fw.smem = append(fw.smem, smemSeed{b: b, word: word})
	fw.live++
}

// issued is called for every instruction a watched warp completes, with the
// lanes that executed it. A seed one of them read closes the watch; a seed
// they overwrote, or that exited with them, dies in those lanes.
func (fw *faultWatch) issued(w *warp, in *isa.Instr, eff uint32) {
	if eff == 0 {
		return
	}
	srcs := sourceRegs(in)
	for i := range fw.regs {
		s := &fw.regs[i]
		if s.w == w && s.lanes&eff != 0 && (s.reg == srcs[0] || s.reg == srcs[1] || s.reg == srcs[2]) {
			fw.close()
			return
		}
	}
	exit := in.Op == isa.OpEXIT
	if !exit && !in.Op.WritesReg() {
		return
	}
	why, still := StopOverwritten, false
	if exit {
		why = StopRetired
	}
	for i := range fw.regs {
		s := &fw.regs[i]
		if s.w != w || s.lanes == 0 {
			continue
		}
		if exit || s.reg == in.Dst {
			fw.scarred = fw.scarred || exit && s.lanes&eff != 0
			if s.lanes &^= eff; s.lanes == 0 {
				fw.live--
				fw.last = why
			}
		}
		still = still || s.lanes != 0
	}
	w.watched = still
}

// smemAccess is called for every lane of an LDS or STS of a watched CTA, with
// the word it addressed.
func (fw *faultWatch) smemAccess(b *cta, word uint32, load bool) {
	still := false
	for i := range fw.smem {
		s := &fw.smem[i]
		if s.b != b {
			continue
		}
		if s.word == word {
			if load {
				fw.close()
				return
			}
			s.b = nil
			fw.live--
			fw.last = StopOverwritten
			continue
		}
		still = true
	}
	b.watched = still
}

// retired is called when a watched CTA retires: shared memory dies with it.
func (fw *faultWatch) retired(b *cta) {
	for i := range fw.smem {
		if s := &fw.smem[i]; s.b == b {
			s.b = nil
			fw.live--
			fw.last, fw.scarred = StopRetired, true
		}
	}
	b.watched = false
}

// deadOnArrival is the third rule, asked once: in the cycle the watch opened,
// after every fault of that cycle has fired and before any warp issues. When
// all that differs is registers and each is dead where its lanes stand, it
// takes the flips back out and kills the seeds: the device is the fault-free
// one again. Anything else is left to the rules that follow execution.
func (fw *faultWatch) deadOnArrival(p *isa.Program) {
	if fw.live == 0 || len(fw.smem) != 0 {
		return
	}
	live, ok := fw.liveIn[p]
	if !ok {
		if fw.liveIn == nil {
			fw.liveIn = make(map[*isa.Program]liveIn)
		}
		live = newLiveIn(p)
		fw.liveIn[p] = live
	}
	for i := range fw.regs {
		if s := &fw.regs[i]; s.w.cta.core.corruptInstr || !live.deadFor(s.w, s.lanes, s.reg) {
			return
		}
	}
	for _, f := range fw.flips {
		f.w.st.regs[f.word] ^= f.mask
	}
	for i := range fw.regs {
		fw.regs[i].lanes = 0
		fw.regs[i].w.watched = false
	}
	fw.live, fw.last = 0, StopDead
}

// StopWhenGolden lets the device end a launch with ErrGoldenRun as soon as
// the rest of the run is provably the fault-free one. Only a caller that
// holds the golden run's result can use a run that stopped, so it is off
// unless asked for: the campaign engine turns it on for every experiment, a
// device driven by hand runs every launch to its end.
func (g *GPU) StopWhenGolden(on bool) { g.stopWhenGolden = on }

// Stopped reports whether, and why, the device ended its run early because
// the rest of it is the golden run. Refork and Restore clear it.
func (g *GPU) Stopped() StopReason { return g.stop }

// faultsSpentOnArrival is faultsSpent for the check that follows fault
// application, where no warp has issued since the flips: an untraced run's
// register seeds may die there by the dead-on-arrival rule. A traced run
// needs the cycle each seed is overwritten in for its trace and keeps to the
// rules that follow execution.
func (g *GPU) faultsSpentOnArrival() bool {
	if fw := &g.watch; fw.born == g.cycle && len(g.faults) == 0 && g.tracer == nil && !g.watchOnly {
		fw.deadOnArrival(g.curProg)
	}
	return g.faultsSpent()
}

// faultsSpent reports, for an open watch, whether the rest of the run is
// provably the golden run: every armed fault has fired and every seed of what
// they changed is dead unread. With a propagation tracer attached the trace must be
// provably complete too. Register taint is: it sits on the seed cells, a
// write that kills a seed clears it, and an exited lane never executes
// again. Shared-memory taint is keyed by CTA id, which the next launch
// reuses, so a word that died with its CTA can still make the tracer speak;
// such a run goes to its end.
func (g *GPU) faultsSpent() bool {
	fw := &g.watch
	if fw.live != 0 || len(g.faults) != 0 {
		return false
	}
	if tr := g.tracer; tr != nil && len(tr.smemTaint)+len(tr.memTaint) != 0 {
		fw.close()
		return false
	}
	return true
}

// stopLaunch ends the current launch because faultsSpent holds. The resident
// state stays: unless a seed left a scar, the device is the fault-free one
// between two cycles of the launch, which Refork may carry on from. On
// arrival — the faults fired entering this cycle and no warp has issued in it
// — the clock goes back to the last cycle that executed.
func (g *GPU) stopLaunch(onArrival bool) (*LaunchResult, error) {
	g.stop = g.watch.last
	g.onGolden = !g.watch.scarred
	g.watch.close()
	if onArrival {
		g.cycle--
	}
	return nil, ErrGoldenRun
}
