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
	// at capture time; forks elide all recorded calls before it.
	launchCall int
	calls      []hostCall

	gpu *GPU // the deep-copied state; never ticked, only cloned from
}

// Snapshot deep-copies the GPU's complete architectural and
// microarchitectural state. It must be taken between cycles — campaigns
// use SnapshotAt, which pauses the launch loop at the right instant.
func (g *GPU) Snapshot() *Snapshot { return g.capture() }

// Restore replaces this GPU's state with a deep copy of the snapshot's.
// Armed faults, the cycle limit, trace writer and context survive; all
// simulated state (memories, caches, cores, statistics, the in-flight
// launch) comes from the snapshot.
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
// results without touching simulator state, so no memories, caches or
// cores are allocated up front — Restore supplies them all. Faults armed
// on the fork apply once the resumed simulation reaches their cycle.
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

// capture builds the Snapshot for the current instant. If a recycled
// snapshot template is available (RecycleSnapshot) the state is copied
// into its existing storage instead of freshly allocated.
func (g *GPU) capture() *Snapshot {
	start := time.Now()
	defer func() { observeCapture(time.Since(start)) }()
	s := &Snapshot{Cycle: g.cycle}
	if sc := g.snapScratch; sc != nil && sc.cfg == g.cfg && sc.mem != nil && len(sc.cores) == len(g.cores) {
		g.snapScratch = nil
		sc.captureStateFrom(g)
		s.gpu = sc
	} else {
		s.gpu = cloneGPU(g)
		s.gpu.adoptCaptureBaseline(g)
	}
	if g.record != nil {
		n := len(g.record.calls)
		s.launchCall = n
		s.calls = g.record.calls[:n:n]
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

// RecycleSnapshot hands a consumed snapshot's storage back to the GPU so
// the next capture reuses it instead of allocating fresh memories and
// cache arenas. The caller guarantees no fork still reads s — the campaign
// engine calls this once a cluster's experiments have all finished.
func (g *GPU) RecycleSnapshot(s *Snapshot) {
	if s.gpu != nil && g.snapScratch == nil {
		g.snapScratch = s.gpu
		s.gpu = nil
	}
}

// Refork rewinds a finished fork so it can replay another experiment from
// snap, which may be the same snapshot or a different one of the same
// recording. The fork's memories and cache arenas stay allocated, letting
// the coming restore copy into them instead of re-allocating tens of
// megabytes per experiment — the dominant cost of small-kernel campaigns.
func (g *GPU) Refork(snap *Snapshot) {
	g.seek = &seekState{snap: snap}
	g.faults = nil
	g.faultRecs = nil
	g.violation = nil
	g.tracer = nil
	g.snapAt, g.snapFn, g.record = nil, nil, nil
	// Rewind the visible clock to the capture cycle immediately: otherwise
	// a pre-restore abort would report the previous experiment's final
	// cycle, which depends on which vessel slot served it.
	g.cycle = snap.Cycle
}

// restore adopts a deep copy of the snapshot state. A fresh fork clones
// everything; a reforked GPU already holds same-shaped memories and caches
// and gets plain copies into the existing storage.
func (g *GPU) restore(s *Snapshot) {
	start := time.Now()
	defer func() { observeRestore(time.Since(start)) }()
	src := s.gpu
	if g.mem == nil || g.l2 == nil || g.cfg != src.cfg || len(g.cores) != len(src.cores) {
		c := cloneGPU(src)
		g.mem, g.dram, g.l2 = c.mem, c.dram, c.l2
		g.bankFree = c.bankFree
		g.cores = c.cores
		for _, cc := range g.cores {
			cc.gpu = g
		}
		g.cycle = c.cycle
		g.kernels, g.kernelSeq, g.launches = c.kernels, c.kernelSeq, c.launches
		g.curProg, g.curParams = c.curProg, c.curParams
		g.curGrid, g.curBlock = c.curGrid, c.curBlock
		g.nextCTA, g.totalCTAs, g.doneCTAs = c.nextCTA, c.totalCTAs, c.doneCTAs
		g.localBase, g.localStep = c.localBase, c.localStep
		g.paramBase, g.progBase = c.paramBase, c.progBase
		g.kernelStat = c.kernelStat
		g.launchStart, g.launchCores, g.launchInstr = c.launchStart, c.launchCores, c.launchInstr
		g.adoptRestoreBaseline(src)
	} else {
		g.restoreStateFrom(src)
	}
	g.violation = nil
}

// adoptCaptureBaseline establishes the COW capture baseline after a fresh
// full clone of the live GPU into a new snapshot template: the live side
// starts tracking its writes and the template records the sync point, so
// the next capture into recycled storage moves only the delta. A no-op
// under the deep-clone protocol.
func (t *GPU) adoptCaptureBaseline(live *GPU) {
	if live.deepClone {
		return
	}
	live.mem.StartTracking()
	t.mem.SetSyncedTo(live.mem)
	live.l2.StartTracking()
	t.l2.SetSyncedTo(live.l2)
	for i, lc := range live.cores {
		tc := t.cores[i]
		captureCacheBaseline(tc.l1d, lc.l1d)
		captureCacheBaseline(tc.l1t, lc.l1t)
		captureCacheBaseline(tc.l1c, lc.l1c)
		captureCacheBaseline(tc.l1i, lc.l1i)
	}
}

func captureCacheBaseline(tpl, live *cache.Cache) {
	if tpl == nil || live == nil {
		return
	}
	live.StartTracking()
	tpl.SetSyncedTo(live)
}

// adoptRestoreBaseline establishes the COW restore baseline after a fresh
// full clone of a snapshot into a new fork vessel: the vessel starts
// tracking its own writes against the snapshot it now mirrors, so its
// next Refork restore from the same template moves only what the
// experiment dirtied. A no-op under the deep-clone protocol.
func (g *GPU) adoptRestoreBaseline(src *GPU) {
	if g.deepClone {
		return
	}
	g.mem.SetSyncedTo(src.mem)
	g.l2.SetSyncedTo(src.l2)
	for i, sc := range src.cores {
		vc := g.cores[i]
		restoreCacheBaseline(vc.l1d, sc.l1d)
		restoreCacheBaseline(vc.l1t, sc.l1t)
		restoreCacheBaseline(vc.l1c, sc.l1c)
		restoreCacheBaseline(vc.l1i, sc.l1i)
	}
}

func restoreCacheBaseline(vessel, snap *cache.Cache) {
	if vessel == nil || snap == nil {
		return
	}
	vessel.SetSyncedTo(snap)
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

// restoreStateFrom rebuilds a fork vessel's state from a snapshot,
// copying only pages, cache lines and resident structures that can have
// diverged when the vessel's provenance allows it (see internal/mem and
// internal/cache for the sync protocol). With deep-clone forced, every
// leg takes the full copy — the differential baseline.
func (g *GPU) restoreStateFrom(src *GPU) {
	full := g.deepClone
	var agg cowAgg
	agg.mem(g.mem.RestoreFrom(src.mem, full))
	g.dram.mem, g.dram.latency = g.mem, src.dram.latency
	if st, err := g.l2.RestoreFrom(src.l2, g.dram, full); err != nil {
		// Geometry drifted (a poisoned vessel left inconsistent storage):
		// self-heal by rebuilding from the source instead of panicking.
		g.l2 = src.l2.Clone(g.dram)
		restoreCacheBaseline(g.l2, src.l2)
		agg.full = true
	} else {
		agg.cache(st)
	}
	g.bankFree = append(g.bankFree[:0], src.bankFree...)
	for i, sc := range src.cores {
		g.cores[i].restoreFrom(sc, g, full, &agg)
	}
	g.copyMetaFrom(src)
	observeCOWRestore(&agg)
}

// captureStateFrom recaptures the live GPU into a recycled snapshot
// template, moving only the state the prefix run dirtied since the
// previous capture. Resident SIMT state is always deep-copied: the live
// GPU keeps executing after the capture, so nothing may be shared with it.
func (t *GPU) captureStateFrom(src *GPU) {
	full := src.deepClone
	var agg cowAgg
	agg.mem(t.mem.CaptureFrom(src.mem, full))
	t.dram.mem, t.dram.latency = t.mem, src.dram.latency
	if st, err := t.l2.CaptureFrom(src.l2, t.dram, full); err != nil {
		t.l2 = src.l2.Clone(t.dram)
		captureCacheBaseline(t.l2, src.l2)
		agg.full = true
	} else {
		agg.cache(st)
	}
	t.bankFree = append(t.bankFree[:0], src.bankFree...)
	for i, sc := range src.cores {
		t.cores[i].captureFrom(sc, t, full, &agg)
	}
	t.copyMetaFrom(src)
	observeCOWCapture(&agg)
}

// copyMetaFrom copies the scalar and host-level launch state shared by
// restore and capture: cycle, statistics, the in-flight launch frame.
func (g *GPU) copyMetaFrom(src *GPU) {
	g.cycle = src.cycle
	g.kernels = make(map[string]*KernelStats, len(src.kernels))
	for name, ks := range src.kernels {
		g.kernels[name] = ks.clone()
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
	g.launchCores = nil
	if src.launchCores != nil {
		g.launchCores = make(map[int]bool, len(src.launchCores))
		for id := range src.launchCores {
			g.launchCores[id] = true
		}
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
	g.restore(s.snap)
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

// cloneGPU deep-copies every piece of simulated state into a fresh,
// internally consistent GPU. Shared immutable inputs (the configuration
// and assembled programs) are referenced, everything mutable is copied.
func cloneGPU(g *GPU) *GPU {
	n := &GPU{
		cfg:         g.cfg,
		mem:         g.mem.Clone(),
		cycle:       g.cycle,
		kernels:     make(map[string]*KernelStats, len(g.kernels)),
		kernelSeq:   append([]string(nil), g.kernelSeq...),
		launches:    append([]LaunchResult(nil), g.launches...),
		bankFree:    append([]uint64(nil), g.bankFree...),
		curProg:     g.curProg,
		curParams:   append([]uint32(nil), g.curParams...),
		curGrid:     g.curGrid,
		curBlock:    g.curBlock,
		nextCTA:     g.nextCTA,
		totalCTAs:   g.totalCTAs,
		doneCTAs:    g.doneCTAs,
		localBase:   g.localBase,
		localStep:   g.localStep,
		paramBase:   g.paramBase,
		progBase:    g.progBase,
		launchStart: g.launchStart,
		launchInstr: g.launchInstr,
	}
	n.dram = &dramBacking{mem: n.mem, latency: g.dram.latency}
	n.l2 = g.l2.Clone(n.dram)
	for name, ks := range g.kernels {
		n.kernels[name] = ks.clone()
	}
	if g.kernelStat != nil {
		n.kernelStat = n.kernels[g.kernelStat.Name]
	}
	if g.launchCores != nil {
		n.launchCores = make(map[int]bool, len(g.launchCores))
		for id := range g.launchCores {
			n.launchCores[id] = true
		}
	}
	n.cores = make([]*core, len(g.cores))
	for i, c := range g.cores {
		n.cores[i] = c.clone(n)
	}
	return n
}

// clone deep-copies a KernelStats, including windows, core lists and the
// cycle-weighted accumulators.
func (k *KernelStats) clone() *KernelStats {
	n := *k
	n.Windows = append([]CycleWindow(nil), k.Windows...)
	n.UsedCores = append([]int(nil), k.UsedCores...)
	return &n
}

// clone deep-copies a SIMT core — caches wired over the new GPU's L2,
// CTAs, warps (SIMT stacks, fetch state) and their lane state (registers,
// predicates) — preserving warp placement order and all back-references.
func (c *core) clone(g *GPU) *core {
	nc := &core{
		id:           c.id,
		gpu:          g,
		corruptInstr: c.corruptInstr,
		liveThreads:  c.liveThreads,
		liveWarps:    c.liveWarps,
		usedThreads:  c.usedThreads,
		usedRegs:     c.usedRegs,
		usedSmem:     c.usedSmem,
		rr:           c.rr,
	}
	if c.l1d != nil {
		nc.l1d = c.l1d.Clone(g.l2)
	}
	if c.l1t != nil {
		nc.l1t = c.l1t.Clone(g.l2)
	}
	if c.l1c != nil {
		nc.l1c = c.l1c.Clone(g.l2)
	}
	if c.l1i != nil {
		nc.l1i = c.l1i.Clone(g.l2)
	}
	c.cloneResidentInto(nc)
	return nc
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

// restoreFrom makes c (a fork vessel's core) a copy of src (the snapshot
// core's), reusing its cache storage via delta restores and rebuilding
// resident state copy-on-write. A RestoreFrom geometry mismatch means the
// vessel's cache storage drifted (a poisoned fork): self-heal with a
// fresh Clone instead of panicking.
func (c *core) restoreFrom(src *core, g *GPU, full bool, agg *cowAgg) {
	c.copyScalarsFrom(src, g)
	restoreL1(&c.l1d, src.l1d, g.l2, full, agg)
	restoreL1(&c.l1t, src.l1t, g.l2, full, agg)
	restoreL1(&c.l1c, src.l1c, g.l2, full, agg)
	restoreL1(&c.l1i, src.l1i, g.l2, full, agg)
	if full {
		c.ctas, c.warps = nil, nil
		src.cloneResidentInto(c)
	} else {
		src.cowResidentInto(c)
	}
}

// captureFrom makes c (a recycled snapshot template's core) a copy of src
// (the live core's) via delta captures. Resident state is deep-copied —
// the live core keeps executing.
func (c *core) captureFrom(src *core, g *GPU, full bool, agg *cowAgg) {
	c.copyScalarsFrom(src, g)
	captureL1(&c.l1d, src.l1d, g.l2, full, agg)
	captureL1(&c.l1t, src.l1t, g.l2, full, agg)
	captureL1(&c.l1c, src.l1c, g.l2, full, agg)
	captureL1(&c.l1i, src.l1i, g.l2, full, agg)
	c.ctas, c.warps = nil, nil
	src.cloneResidentInto(c)
}

// restoreL1 delta-restores one L1 from its snapshot counterpart, handling
// nil legs, shape drift (fresh Clone + new baseline) and the deep-clone
// protocol.
func restoreL1(dst **cache.Cache, src *cache.Cache, l2 cache.Backing, full bool, agg *cowAgg) {
	switch {
	case src == nil:
		*dst = nil
	case *dst == nil:
		*dst = src.Clone(l2)
		if !full {
			restoreCacheBaseline(*dst, src)
		}
		agg.full = true
	default:
		st, err := (*dst).RestoreFrom(src, l2, full)
		if err != nil {
			*dst = src.Clone(l2)
			if !full {
				restoreCacheBaseline(*dst, src)
			}
			agg.full = true
			return
		}
		agg.cache(st)
	}
}

// captureL1 delta-captures one live L1 into its template counterpart.
func captureL1(dst **cache.Cache, src *cache.Cache, l2 cache.Backing, full bool, agg *cowAgg) {
	switch {
	case src == nil:
		*dst = nil
	case *dst == nil:
		*dst = src.Clone(l2)
		if !full {
			captureCacheBaseline(*dst, src)
		}
		agg.full = true
	default:
		st, err := (*dst).CaptureFrom(src, l2, full)
		if err != nil {
			*dst = src.Clone(l2)
			if !full {
				captureCacheBaseline(*dst, src)
			}
			agg.full = true
			return
		}
		agg.cache(st)
	}
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
