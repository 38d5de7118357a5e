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
// proved, by one of two rules:
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
	state uint8
	live  int        // seeds not yet dead
	last  StopReason // what killed the seed that died last; StopInert while open and none has
	regs  []regSeed
	smem  []smemSeed
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
	fw.regs, fw.smem = fw.regs[:0], fw.smem[:0]
	fw.live, fw.last = 0, NotStopped
}

// seedReg records that an injection flipped a bit of register reg in lane of
// w.
func (fw *faultWatch) seedReg(w *warp, lane, reg int) {
	if fw.state != watchOpen {
		return
	}
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
			fw.last = StopRetired
		}
	}
	b.watched = false
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

// stopLaunch ends the current launch because faultsSpent holds.
func (g *GPU) stopLaunch() (*LaunchResult, error) {
	g.stop = g.watch.last
	g.watch.close()
	g.releaseLaunch()
	return nil, ErrGoldenRun
}
