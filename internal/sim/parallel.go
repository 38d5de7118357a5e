// Parallel per-cycle core stepping with a deterministic two-phase commit.
//
// The serial engine interleaves everything: each core's tick issues
// instructions that immediately touch the shared L2 (and its bank queues),
// the global violation latch, and the kernel statistics. The parallel
// engine splits every cycle into two phases:
//
//   - compute: a persistent worker pool steps disjoint core partitions
//     concurrently. A core only mutates core-local state (registers,
//     predicates, SIMT stacks, shared memory, its warp lists and barrier
//     bookkeeping) and appends every would-be shared-state effect — L1I
//     fetches that can miss into the L2, global/local/texture memory
//     transactions, constant-cache loads, violations — to a per-core list
//     of deferred records, in issue order.
//
//   - commit: behind a barrier, the coordinator replays each core's
//     records in ascending core-ID order (exactly the order the serial
//     engine visits cores), then folds the per-core instruction and CTA
//     deltas and the violation latches into GPU-global state.
//
// The replay performs the same cache/L2/bank-queue transitions with the
// same operands in the same relative order as the serial engine, so the
// two are bit-identical: same outcomes, same cycle counts, same journals,
// for any worker count, GOMAXPROCS, or goroutine schedule. Correctness
// rests on one microarchitectural invariant the config validator already
// enforces: every instruction latency is >= 1 cycle, so nothing a cycle
// defers can feed a compute-phase decision within that same cycle.
//
// Modes whose observers are order-sensitive mid-cycle — the debug
// TraceWriter, the fault-propagation tracer, the access log, and
// decode-from-corrupted-cache after an L1I injection — disable the
// parallel path dynamically (per cycle); since parallel and serial agree
// bit-for-bit, switching per cycle is invisible.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpufi/internal/cache"
	"gpufi/internal/isa"
	"gpufi/internal/obs"
)

// Kinds of deferred memory phases in a pendInstr.
const (
	pmNone = iota
	pmData // global/local/texture load or store (executeMem tail)
	pmLDC  // constant load through the per-core L1C
)

// memPend captures a warp memory instruction's shared-state half at
// compute time: everything the commit replay needs is copied here, so the
// replay is insensitive to any later compute-phase work.
type memPend struct {
	kind    uint8
	in      *isa.Instr
	eff     uint32
	l1      *cache.Cache // first-level cache for the access (nil: straight to L2)
	nLines  int
	lines   [isa.WarpSize]uint32 // coalesced line addresses, first-occurrence order
	addrs   [isa.WarpSize]uint32 // per-lane effective addresses
	data    isa.Row              // the store operand row, read at compute time
	ldcAddr uint32               // constant/parameter device address (pmLDC)
}

// pendInstr is one instruction's deferred shared-state effects, recorded
// during parallel compute and replayed at commit. Within a record the
// replay order is fixed — fetch, then the memory phase, then a latched
// violation — matching the serial engine's order within one step.
type pendInstr struct {
	w *warp

	// Instruction fetch: the L1I line access to replay.
	doFetch     bool
	fetchAddr   uint32
	chargeFetch bool // fetch cost feeds the latency (control-class ops only)

	// Busy-until finalization: compute parked the warp at cycle+1; commit
	// writes the true stall once the deferred costs are known.
	setBusy bool
	baseLat int

	mem memPend

	// viol is a compute-detected violation latched at this point of the
	// core's issue order (after the record's own fetch/memory effects).
	viol error
}

// newPend returns the deferred record for the instruction currently being
// stepped, appending a fresh one on first use. Records pool their backing
// array across cycles on the core.
func (c *core) newPend(w *warp) *pendInstr {
	if c.pi < 0 {
		c.pend = append(c.pend, pendInstr{w: w})
		c.pi = len(c.pend) - 1
	}
	return &c.pend[c.pi]
}

// commitPend replays this core's deferred records against the shared
// state. Called from commitCycle on the coordinator goroutine, in
// ascending core-ID order.
func (c *core) commitPend() {
	g := c.gpu
	for i := range c.pend {
		pi := &c.pend[i]
		cost := 0
		if pi.doFetch {
			hit, below := c.l1i.AccessRead(pi.fetchAddr)
			if !hit && pi.chargeFetch {
				cost += c.l1i.Geometry().HitCycles + below
			}
		}
		switch pi.mem.kind {
		case pmData:
			cost += c.commitData(pi)
		case pmLDC:
			cost += c.commitLDC(pi)
		}
		if pi.setBusy {
			pi.w.busyUntil = g.cycle + uint64(pi.baseLat+cost)
		}
		if pi.w != nil {
			pi.w.pendBusy = 0
		}
		if pi.viol != nil {
			c.setViol(pi.viol)
		}
		*pi = pendInstr{} // drop warp/cache references for the GC
	}
	c.pend = c.pend[:0]
}

// commitData replays the line/word transactions of a deferred
// global/local/texture access — the exact tail of executeMem.
func (c *core) commitData(pi *pendInstr) int {
	m := &pi.mem
	lines := m.lines[:m.nLines]
	if m.in.Op.IsLoad() {
		return c.loadLines(pi.w, m.in, m.eff, m.l1, lines, &m.addrs)
	}
	return c.storeLines(pi.w, m.in, m.eff, m.l1, lines, &m.addrs, &m.data)
}

// commitLDC replays a deferred constant load through the L1C.
func (c *core) commitLDC(pi *pendInstr) int {
	m := &pi.mem
	_, below := c.l1c.AccessRead(m.ldcAddr)
	c.broadcastLoad(pi.w, m.in.Dst, m.eff, c.l1c.LoadWord(m.ldcAddr))
	return c.gpu.cfg.L1C.HitCycles + below
}

// commitCycle folds every core's cycle-local effects into GPU-global
// state in ascending core-ID order — the single serialization point both
// engines share. It is what makes "lowest core ID wins" the deterministic
// rule for same-cycle violations, and what keeps sampleStats and the
// violation latch out of the compute phase entirely.
func (g *GPU) commitCycle() {
	for _, c := range g.cores {
		if len(c.pend) > 0 {
			c.commitPend()
		}
		if c.instrDelta != 0 {
			g.kernelStat.Instructions += c.instrDelta
			c.instrDelta = 0
		}
		if c.ctaRetired != 0 {
			g.doneCTAs += c.ctaRetired
			c.ctaRetired = 0
		}
		if c.viol != nil {
			if g.violation == nil {
				g.violation = c.viol
			}
			c.viol = nil
		}
		c.stop = false
	}
}

// SetParallelCores sets how many worker goroutines step SM cores within
// each cycle; 0 or 1 keeps the serial engine. Outcomes are bit-identical
// for every value. Call it before Launch — the pool is per-launch.
func (g *GPU) SetParallelCores(n int) {
	if n < 0 {
		n = 0
	}
	g.stopPool()
	g.parallelCores = n
}

// ParallelCores returns the configured worker count (0 = serial).
func (g *GPU) ParallelCores() int { return g.parallelCores }

// stepCores runs one cycle's compute phase over all cores and reports
// whether any warp was ready to issue.
func (g *GPU) stepCores() bool {
	if g.parallelEligible() {
		return g.stepCoresParallel()
	}
	if g.parallelCores > 1 {
		parallelFallbacks.Add(1)
		parallelFallbackCtr.Inc()
	}
	anyReady := false
	for _, c := range g.cores {
		if c.tick() {
			anyReady = true
		}
	}
	return anyReady
}

// parallelEligible reports whether this cycle may step cores in parallel.
// Order-sensitive observers, the open liveness watch among them, force the
// serial path; so does a launch with fewer than two populated cores, where
// the barrier costs more than it buys. The choice is invisible: both paths
// are bit-identical.
func (g *GPU) parallelEligible() bool {
	if g.parallelCores <= 1 || len(g.cores) < 2 ||
		g.TraceWriter != nil || g.tracer != nil || g.access != nil || g.corrupted ||
		g.watch.state == watchOpen {
		return false
	}
	active := 0
	for _, c := range g.cores {
		if len(c.warps) > 0 {
			if active++; active >= 2 {
				return true
			}
		}
	}
	return false
}

// stepPool is the persistent per-launch worker pool. Synchronization is a
// generation barrier: the coordinator bumps gen to start a cycle, workers
// step their core partitions and decrement pending, and the coordinator
// waits for pending to drain before committing. Spins always yield —
// GOMAXPROCS may be 1 — and park after a bound, so workers cost (almost)
// nothing during fast-forward spans and snapshot captures.
type stepPool struct {
	cores   []*core
	ready   []uint32 // per-core "a warp was ready" flags, by core ID
	workers int
	gen     atomic.Uint64
	pending atomic.Int64
	done    atomic.Bool
	wg      sync.WaitGroup
}

// poolSpinYields bounds busy yielding before a waiting goroutine starts
// sleeping between polls.
const poolSpinYields = 256

func (g *GPU) startPool() {
	n := g.parallelCores
	if n > len(g.cores) {
		n = len(g.cores)
	}
	p := &stepPool{cores: g.cores, ready: make([]uint32, len(g.cores))}
	per := (len(g.cores) + n - 1) / n
	for lo := 0; lo < len(g.cores); lo += per {
		hi := lo + per
		if hi > len(g.cores) {
			hi = len(g.cores)
		}
		p.workers++
		p.wg.Add(1)
		go p.work(lo, hi)
	}
	g.pool = p
	parallelPools.Add(1)
}

func (g *GPU) stopPool() {
	if g.pool == nil {
		return
	}
	g.pool.done.Store(true)
	g.pool.wg.Wait()
	g.pool = nil
}

// work is one worker's loop: wait for the next cycle generation, step the
// owned core partition in compute (defer) mode, signal completion.
func (p *stepPool) work(lo, hi int) {
	defer p.wg.Done()
	var last uint64
	for {
		for spins := 0; ; spins++ {
			if gen := p.gen.Load(); gen != last {
				last = gen
				break
			}
			if p.done.Load() {
				return
			}
			if spins < poolSpinYields {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
		for i := lo; i < hi; i++ {
			c := p.cores[i]
			c.deferOps = true
			if c.tick() {
				p.ready[i] = 1
			} else {
				p.ready[i] = 0
			}
			c.deferOps = false
		}
		p.pending.Add(-1)
	}
}

// stepCoresParallel runs one compute phase on the pool. The gen bump
// publishes all coordinator writes since the last barrier (fault
// application, CTA refill, the cycle counter) to the workers; draining
// pending publishes the workers' core mutations and deferred records back
// to the coordinator before commitCycle touches them.
func (g *GPU) stepCoresParallel() bool {
	if g.pool == nil {
		g.startPool()
	}
	p := g.pool
	p.pending.Store(int64(p.workers))
	p.gen.Add(1)
	for spins := 0; p.pending.Load() != 0; spins++ {
		if spins < poolSpinYields {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	parallelCycles.Add(1)
	parallelCyclesCtr.Inc()
	for _, r := range p.ready {
		if r != 0 {
			return true
		}
	}
	return false
}

// Process-wide parallel-stepping counters, mirroring the COW and snapshot
// observers: pure observers, never perturbing simulated state.
var (
	parallelCycles    atomic.Int64 // cycles stepped by the worker pool
	parallelFallbacks atomic.Int64 // cycles forced serial despite ParallelCores > 1
	parallelPools     atomic.Int64 // worker pools started (one per parallel launch)

	parallelCyclesCtr = obs.Default().Counter("gpufi_parallel_cycles_total",
		"Simulated cycles stepped by the parallel per-cycle core engine.")
	parallelFallbackCtr = obs.Default().Counter("gpufi_parallel_fallback_cycles_total",
		"Cycles a parallel-enabled GPU fell back to serial stepping.")
)

// ParallelCounters are the process-wide parallel-stepping counters.
type ParallelCounters struct {
	Cycles    int64 // cycles stepped by the worker pool
	Fallbacks int64 // cycles forced serial despite ParallelCores > 1
	Pools     int64 // worker pools started (one per parallel launch)
}

// ParallelStats returns the process-wide parallel-stepping counters.
func ParallelStats() ParallelCounters {
	return ParallelCounters{
		Cycles:    parallelCycles.Load(),
		Fallbacks: parallelFallbacks.Load(),
		Pools:     parallelPools.Load(),
	}
}
