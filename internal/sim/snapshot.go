package sim

import (
	"errors"
	"fmt"
	"time"

	"gpufi/internal/cache"
	"gpufi/internal/isa"
	"gpufi/internal/mem"
)

// This file implements the snapshot-and-fork engine: a deep copy of the
// complete mid-execution GPU state (register files, SIMT stacks, shared and
// local memory, cache tag+data arrays, device memory, warp-scheduler and
// cycle state), plus the host-call record/replay machinery that lets a
// forked simulation skip the fault-free prefix an injection campaign would
// otherwise re-simulate for every experiment.
//
// The lifecycle is:
//
//  1. The campaign's prefix run calls EnableRecording and SnapshotAt, then
//     executes the application once without faults. Host-side API results
//     (Malloc addresses, MemcpyDtoH payloads, launch results) are recorded;
//     at each requested cycle the run pauses and hands a Snapshot to the
//     sink callback.
//  2. Each experiment runs on a NewFork GPU. Its host calls before the
//     snapshot's launch replay the recorded results without simulating
//     anything; the launch containing the snapshot cycle restores the deep
//     state and resumes the cycle loop mid-flight, where the armed faults
//     then apply exactly as they would have in a from-scratch run.
//
// Because the simulator is deterministic, a fork is bit-identical to a
// simulation from cycle 0: same outputs, same cycle counts, same
// injection-target choices.

// ErrReplayStop is the sentinel a SnapshotAt sink returns to abort the
// recording run once the last snapshot has been captured; the remaining
// (never-needed) suffix of the fault-free execution is skipped.
var ErrReplayStop = errors.New("sim: replay stopped after final snapshot")

// host-call kinds recorded during a prefix run.
const (
	callMalloc = uint8(iota)
	callFree
	callHtoD
	callDtoH
	callLaunch
)

var callNames = [...]string{"Malloc", "Free", "MemcpyHtoD", "MemcpyDtoH", "Launch"}

// hostCall is one recorded host-API interaction and its result.
type hostCall struct {
	kind   uint8
	addr   uint32 // Malloc result; Free/Memcpy device address
	size   uint32 // Malloc request size; Memcpy byte count
	data   []byte // MemcpyDtoH payload (the fault-free device bytes)
	name   string // Launch kernel name
	launch LaunchResult
}

// recorder accumulates host calls during a prefix run.
type recorder struct {
	calls []hostCall
}

func (r *recorder) add(c hostCall) { r.calls = append(r.calls, c) }

// seekState tracks a fork's progress through the recorded prefix.
type seekState struct {
	snap *Snapshot
	next int // index of the next recorded host call to elide

	// held: the vessel already stands on the fault-free run inside snap's
	// launch, at cycle clock (see Refork); the launch resumes there, with no
	// restore, unless a fault is armed for a cycle it has passed.
	held  bool
	clock uint64
}

// Snapshot is an immutable deep copy of a GPU's full mid-execution state,
// taken between two cycles of a kernel launch. Restoring it yields a GPU
// that continues exactly as the original would have; one snapshot can seed
// any number of forks concurrently.
type Snapshot struct {
	// Cycle is the global cycle the state was captured at: every cycle up
	// to and including it has executed, nothing after it has.
	Cycle uint64

	// launchCall is the host-call index of the launch that was in flight
	// at capture time; forks elide all recorded calls before it. rec is the
	// recording the calls are a prefix of: two snapshots of one recording
	// with one launchCall were captured inside the same launch.
	launchCall int
	calls      []hostCall
	rec        *recorder

	gpu *GPU // the deep-copied state; never ticked, only cloned from
}

// Snapshot deep-copies the GPU's complete architectural and
// microarchitectural state. It must be taken between cycles — campaigns
// use SnapshotAt, which pauses the launch loop at the right instant.
func (g *GPU) Snapshot() *Snapshot { return g.capture() }

// Restore replaces this GPU's state with a deep copy of the snapshot's.
// Armed faults, the cycle limit, trace writer and context survive; all
// simulated state (memories, caches, cores, statistics, the in-flight
// launch) comes from the snapshot, and a run the device had stopped early
// (Stopped) is forgotten with the state it was stopped in.
func (g *GPU) Restore(s *Snapshot) { g.restore(s) }

// EnableRecording turns on host-call recording for a campaign prefix run.
func (g *GPU) EnableRecording() { g.record = &recorder{} }

// SnapshotAt schedules snapshot captures at the given global cycles
// (ascending). The launch loop pauses at each cycle and hands the capture
// to fn; if fn returns an error the run aborts with it (ErrReplayStop is
// the conventional "got everything I need" abort).
func (g *GPU) SnapshotAt(cycles []uint64, fn func(*Snapshot) error) {
	g.snapAt = append([]uint64(nil), cycles...)
	g.snapFn = fn
}

// NewFork builds a GPU that replays a recorded prefix up to the snapshot
// and then resumes simulation from its state. The fork is a shell until
// the snapshot's launch arrives: host calls before it return recorded
// results without touching simulator state, so it holds no memories, caches
// or cores up front — its first restore borrows them from the device pool
// (or builds them, when the pool has none of the snapshot's shape) and fills
// them from the snapshot. Faults armed on the fork apply once the resumed
// simulation reaches their cycle.
func NewFork(snap *Snapshot) *GPU {
	return &GPU{
		cfg:     snap.gpu.cfg,
		kernels: make(map[string]*KernelStats),
		seek:    &seekState{snap: snap},
		// Adopt the capture cycle up front: a fork that aborts before its
		// restore (e.g. a quarantined pre-run panic) then reports the
		// snapshot cycle instead of a zero value, deterministically.
		cycle: snap.Cycle,
	}
}

// capture builds the Snapshot for the current instant: the state is synced
// into a recycled template if one is held (RecycleSnapshot), else into
// storage taken from the device pool.
func (g *GPU) capture() *Snapshot {
	start := time.Now()
	defer func() { observeCapture(time.Since(start)) }()
	s := &Snapshot{Cycle: g.cycle}
	var sc *GPU
	if n := len(g.snapScratch); n > 0 {
		sc, g.snapScratch = g.snapScratch[n-1], g.snapScratch[:n-1]
	}
	if sc == nil || !sc.fits(g.cfg) {
		sc = &GPU{kernels: make(map[string]*KernelStats)}
		st, _ := pool.take(g.cfg)
		sc.adopt(st)
	}
	sc.cfg = g.cfg
	sc.syncStateFrom(g, true)
	s.gpu = sc
	if g.record != nil {
		n := len(g.record.calls)
		s.launchCall = n
		s.calls = g.record.calls[:n:n]
		s.rec = g.record
	}
	return s
}

// VerifyStorage checks that the snapshot's backing state is still intact
// and internally consistent: present, shaped for its configuration, and
// frozen at the capture cycle. The campaign engine calls it before
// RecycleSnapshot — a fork that panicked mid-restore shares nothing with
// the snapshot by construction, but recycling is exactly the place where
// a corrupted template would propagate into every later cluster, so the
// cheap invariants are re-checked rather than assumed.
func (s *Snapshot) VerifyStorage() error {
	src := s.gpu
	if src == nil {
		return fmt.Errorf("sim: snapshot storage already recycled")
	}
	if src.mem == nil || src.l2 == nil || src.dram == nil {
		return fmt.Errorf("sim: snapshot storage lost its memory system")
	}
	if src.cfg == nil || len(src.cores) != src.cfg.SMs {
		return fmt.Errorf("sim: snapshot core count diverged from its configuration")
	}
	for i, c := range src.cores {
		if c == nil {
			return fmt.Errorf("sim: snapshot core %d missing", i)
		}
	}
	if src.cycle != s.Cycle {
		return fmt.Errorf("sim: snapshot state ticked past its capture cycle (%d != %d)",
			src.cycle, s.Cycle)
	}
	return nil
}

// RecycleSnapshot hands a consumed snapshot's storage back to the GPU so a
// later capture syncs into it, moving only what the prefix run wrote since
// the template's own capture (one or two back), instead of into other storage
// from the pool; Release parks it along with the device. The GPU holds up to
// two such spares — a prefix that captures cluster k+1 while cluster k
// executes has two templates alive — and leaves a third with its snapshot.
// The caller guarantees no fork still reads s.
func (g *GPU) RecycleSnapshot(s *Snapshot) {
	if s.gpu != nil && len(g.snapScratch) < 2 {
		g.snapScratch = append(g.snapScratch, s.gpu)
		s.gpu = nil
	}
}

// Refork rewinds a finished fork so it can replay another experiment from
// snap, which may be the same snapshot or a different one of the same
// recording. The fork keeps its storage, and with it the record of which
// snapshot it mirrors and what it wrote since, so the coming restore moves
// only the pages and lines that diverged.
//
// A fork that stopped on the fault-free run (onGolden) inside the very launch
// snap was captured in, at snap's cycle or later, holds a state the restore
// and the fault-free cycles after it would only rebuild: it is kept, and the
// replayed launch resumes from it. In a campaign's cycle-sorted hand-out that
// is every next experiment of the same cluster. The memory image and caches
// keep the provenance of their last restore and go on tracking what they
// write, so the next restore's delta covers the whole chain. The deep-clone
// protocol shares nothing and keeps nothing.
func (g *GPU) Refork(snap *Snapshot) {
	b := g.base
	held := g.onGolden && !g.deepClone && b != nil && snap.gpu != nil &&
		(snap == b || snap.rec != nil && snap.rec == b.rec && snap.launchCall == b.launchCall) &&
		len(g.launches) == len(snap.gpu.launches) && g.cycle >= snap.Cycle
	g.seek = &seekState{snap: snap, held: held, clock: g.cycle}
	g.onGolden = false
	g.faults = nil
	g.faultRecs = nil
	g.violation = nil
	g.tracer = nil
	g.watch.reset()
	g.stop = NotStopped
	g.snapAt, g.snapFn, g.record = nil, nil, nil
	// Rewind the visible clock to the capture cycle immediately: otherwise
	// a pre-restore abort would report the previous experiment's final
	// cycle, which depends on which vessel slot served it.
	g.cycle = snap.Cycle
}

// restore makes the device a copy of the snapshot state. A fork shell (and
// a vessel whose storage is gone or shaped for another model) first takes
// storage from the device pool; the sync that follows is the same one a
// reforked vessel gets, and its full legs are what give new storage its
// baseline. The device runs under the snapshot's configuration from here:
// ECC, lenient memory, latencies and the scheduler are read through cfg.
func (g *GPU) restore(s *Snapshot) {
	start := time.Now()
	defer func() { observeRestore(time.Since(start)) }()
	src := s.gpu
	if !g.fits(src.cfg) {
		st, used := pool.take(src.cfg)
		if !used {
			vesselsBuilt.Add(1)
		}
		g.adopt(st)
	}
	g.cfg = src.cfg
	g.syncStateFrom(src, false)
	g.violation = nil
	g.base = s
}

// cowAgg accumulates what one restore or capture moved across all state
// legs (device memory, L2, every L1), for the COW counters.
type cowAgg struct {
	unitsCopied, unitsTotal int64
	bytesCopied, bytesTotal int64
	full                    bool
}

func (a *cowAgg) mem(st mem.SyncStats) {
	a.unitsCopied += int64(st.UnitsCopied)
	a.unitsTotal += int64(st.UnitsTotal)
	a.bytesCopied += st.BytesCopied
	a.bytesTotal += st.BytesTotal
	if st.Full {
		a.full = true
	}
}

func (a *cowAgg) cache(st cache.SyncStats) {
	a.unitsCopied += int64(st.UnitsCopied)
	a.unitsTotal += int64(st.UnitsTotal)
	a.bytesCopied += st.BytesCopied
	a.bytesTotal += st.BytesTotal
	if st.Full {
		a.full = true
	}
}

// syncStateFrom makes g's state a copy of src's: the one routine that fills
// a device from a source. A restore (capture false) fills a fork vessel from
// a snapshot template, a capture fills a template from the live device; the
// two differ in which side's writes the delta protocol tracks (see
// internal/mem and internal/cache) and in how resident state travels.
// Pages, cache lines and resident structures that cannot have diverged are
// not touched when g's provenance says so; storage with no provenance — new,
// or fresh from the pool with another campaign's contents — takes the full
// legs, which cost what is resident on either side and establish the
// baseline for the next sync. With deep-clone forced every leg is a full
// one, every time: the differential baseline.
func (g *GPU) syncStateFrom(src *GPU, capture bool) {
	full := g.deepClone
	if capture {
		full = src.deepClone
	}
	var agg cowAgg
	if capture {
		agg.mem(g.mem.CaptureFrom(src.mem, full))
	} else {
		agg.mem(g.mem.RestoreFrom(src.mem, full))
	}
	g.dram.mem, g.dram.latency = g.mem, src.dram.latency
	syncCache(&g.l2, src.l2, g.dram, capture, full, &agg)
	g.bankFree = append(g.bankFree[:0], src.bankFree...)
	for i, sc := range src.cores {
		c := g.cores[i]
		c.copyScalarsFrom(sc, g)
		syncCache(&c.l1d, sc.l1d, g.l2, capture, full, &agg)
		syncCache(&c.l1t, sc.l1t, g.l2, capture, full, &agg)
		syncCache(&c.l1c, sc.l1c, g.l2, capture, full, &agg)
		syncCache(&c.l1i, sc.l1i, g.l2, capture, full, &agg)
		if capture || full {
			// The live device keeps executing after a capture, and the
			// deep-clone protocol shares nothing: a private deep copy.
			c.ctas, c.warps = nil, nil
			sc.cloneResidentInto(c)
		} else {
			sc.cowResidentInto(c)
		}
	}
	g.copyMetaFrom(src)
	if capture {
		observeCOWSync(&agg, &cowCaptures, &cowFullCaptures)
	} else {
		observeCOWSync(&agg, &cowRestores, &cowFullRestores)
	}
}

// syncCache brings *dst to src's state by RestoreFrom or CaptureFrom. A
// level the model lacks stays nil. A destination that is missing, or whose
// geometry drifted (a poisoned fork left inconsistent storage), is rebuilt
// empty and synced like any other cache without provenance — never a panic.
func syncCache(dst **cache.Cache, src *cache.Cache, backing cache.Backing, capture, full bool, agg *cowAgg) {
	if src == nil {
		*dst = nil
		return
	}
	sync := (*cache.Cache).RestoreFrom
	if capture {
		sync = (*cache.Cache).CaptureFrom
	}
	if *dst != nil {
		if st, err := sync(*dst, src, backing, full); err == nil {
			agg.cache(st)
			return
		}
	}
	*dst = cache.New(src.Geometry(), backing)
	st, _ := sync(*dst, src, backing, full) // src's own geometry: cannot fail
	agg.cache(st)
}

// copyMetaFrom copies the scalar and host-level launch state shared by
// restore and capture: cycle, statistics, the in-flight launch frame. The
// per-kernel statistics refill g's own entries, so a vessel restored once
// per experiment allocates nothing here.
func (g *GPU) copyMetaFrom(src *GPU) {
	g.cycle = src.cycle
	for name := range g.kernels {
		if src.kernels[name] == nil {
			delete(g.kernels, name)
		}
	}
	for name, ks := range src.kernels {
		dst := g.kernels[name]
		if dst == nil {
			dst = &KernelStats{}
			g.kernels[name] = dst
		}
		windows, cores := dst.Windows[:0], dst.UsedCores[:0]
		*dst = *ks
		dst.Windows = append(windows, ks.Windows...)
		dst.UsedCores = append(cores, ks.UsedCores...)
	}
	g.kernelSeq = append(g.kernelSeq[:0], src.kernelSeq...)
	g.launches = append(g.launches[:0], src.launches...)
	g.curProg = src.curProg
	g.curParams = append(g.curParams[:0], src.curParams...)
	g.curGrid, g.curBlock = src.curGrid, src.curBlock
	g.nextCTA, g.totalCTAs, g.doneCTAs = src.nextCTA, src.totalCTAs, src.doneCTAs
	g.localBase, g.localStep = src.localBase, src.localStep
	g.paramBase, g.progBase = src.paramBase, src.progBase
	g.violation = src.violation
	g.kernelStat = nil
	if src.kernelStat != nil {
		g.kernelStat = g.kernels[src.kernelStat.Name]
	}
	g.launchStart, g.launchInstr = src.launchStart, src.launchInstr
	g.launchCores = append(g.launchCores[:0], src.launchCores...)
	// The liveness watch's cells do not travel: a copy of a device no fault
	// has fired on starts with none, and a copy of any other can never prove
	// itself back on the golden run.
	g.watch.reset()
	g.stop, g.onGolden = NotStopped, false
	if src.watch.state != watchIdle {
		g.watch.state = watchClosed
	}
}

// seekNext consumes the next recorded host call, checking its kind.
func (g *GPU) seekNext(kind uint8) (*hostCall, error) {
	s := g.seek
	if s.next >= s.snap.launchCall {
		return nil, fmt.Errorf("sim: replay diverged: %s call past the snapshot point (call %d)",
			callNames[kind], s.next)
	}
	c := &s.snap.calls[s.next]
	if c.kind != kind {
		return nil, fmt.Errorf("sim: replay diverged at host call %d: recorded %s, fork issued %s",
			s.next, callNames[c.kind], callNames[kind])
	}
	s.next++
	return c, nil
}

// diverged reports a host-call argument mismatch during replay.
func (g *GPU) diverged(call string, want, got uint32) error {
	return fmt.Errorf("sim: replay diverged in %s at host call %d: recorded %#x, fork passed %#x",
		call, g.seek.next-1, want, got)
}

// seekLaunch handles a Launch while the fork is still replaying: launches
// before the snapshot's return their recorded results; the snapshot's own
// launch restores the deep state and resumes the cycle loop mid-kernel.
func (g *GPU) seekLaunch(p *isa.Program) (*LaunchResult, error) {
	s := g.seek
	if s.next < s.snap.launchCall {
		c, err := g.seekNext(callLaunch)
		if err != nil {
			return nil, err
		}
		if c.name != p.Name {
			return nil, fmt.Errorf("sim: replay diverged at host call %d: recorded launch of %s, fork launched %s",
				s.next-1, c.name, p.Name)
		}
		res := c.launch
		return &res, nil
	}
	if s.held && (len(g.faults) == 0 || g.faults[0].Cycle > s.clock) {
		g.cycle = s.clock
		snapChained.Add(1)
	} else {
		g.restore(s.snap)
	}
	g.seek = nil
	if g.curProg == nil || g.curProg.Name != p.Name {
		name := "<none>"
		if g.curProg != nil {
			name = g.curProg.Name
		}
		return nil, fmt.Errorf("sim: replay diverged at the snapshot launch: snapshot holds kernel %s, fork launched %s",
			name, p.Name)
	}
	return g.runLaunch()
}

// copyScalarsFrom copies a core's scalar occupancy and scheduler state.
func (c *core) copyScalarsFrom(src *core, g *GPU) {
	c.id = src.id
	c.gpu = g
	c.corruptInstr = src.corruptInstr
	c.liveThreads = src.liveThreads
	c.liveWarps = src.liveWarps
	c.readyAt = 0 // the resident warps are about to be replaced
	c.usedThreads = src.usedThreads
	c.usedRegs = src.usedRegs
	c.usedSmem = src.usedSmem
	c.rr = src.rr
}

// cloneResidentInto deep-copies c's resident CTAs and warps into nc,
// preserving warp scheduler order and all back-references. Warp structs,
// lane states and register files are slab-allocated per CTA — a full RTX
// 2060 holds ~1k resident warps, and a handful of slabs per CTA keeps
// campaign forks off the garbage collector. The lane tables are immutable
// and stay shared with c.
func (c *core) cloneResidentInto(nc *core) {
	if len(c.ctas) == 0 && len(c.warps) == 0 {
		return
	}
	wmap := make(map[*warp]*warp, len(c.warps))
	nc.ctas = make([]*cta, 0, len(c.ctas))
	for _, b := range c.ctas {
		nb := &cta{id: b.id, core: nc, liveWarps: b.liveWarps}
		if len(b.smem) > 0 {
			nb.smem = append([]byte(nil), b.smem...)
		}
		nRegs, nStack := 0, 0
		for _, w := range b.warps {
			nRegs += len(w.st.regs)
			nStack += len(w.stack)
		}
		nb.warps = make([]*warp, len(b.warps))
		warps := make([]warp, len(b.warps))
		states := make([]laneState, len(b.warps))
		regs := make([]uint32, 0, nRegs)
		stacks := make([]stackEntry, 0, nStack)
		for i, w := range b.warps {
			st := &states[i]
			*st = *w.st
			regs = append(regs, w.st.regs...)
			st.regs = regs[len(regs)-len(w.st.regs) : len(regs) : len(regs)]
			stacks = append(stacks, w.stack...)
			nw := &warps[i]
			*nw = warp{
				cta:        nb,
				slot:       w.slot,
				lanes:      w.lanes,
				st:         st,
				stack:      stacks[len(stacks)-len(w.stack) : len(stacks) : len(stacks)],
				busyUntil:  w.busyUntil,
				atBarrier:  w.atBarrier,
				exited:     w.exited,
				lastIssue:  w.lastIssue,
				fetchLine:  w.fetchLine,
				fetchValid: w.fetchValid,
			}
			nb.warps[i] = nw
			wmap[w] = nw
		}
		nc.ctas = append(nc.ctas, nb)
	}
	nc.warps = make([]*warp, 0, len(c.warps))
	for _, w := range c.warps {
		nw, ok := wmap[w]
		if !ok {
			// A warp outside any resident CTA cannot exist; guard anyway.
			continue
		}
		nc.warps = append(nc.warps, nw)
	}
}
