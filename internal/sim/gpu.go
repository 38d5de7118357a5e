package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/isa"
	"gpufi/internal/lazyrand"
	"gpufi/internal/mem"
)

// dramBacking adapts the device memory image as the lowest Backing level.
type dramBacking struct {
	mem     *mem.Memory
	latency int
}

func (d *dramBacking) FetchLine(addr uint32, dst []byte) int {
	d.mem.ReadBytes(addr, dst)
	return d.latency
}

func (d *dramBacking) StoreLine(addr uint32, src []byte) int {
	d.mem.WriteBytes(addr, src)
	return d.latency
}

func (d *dramBacking) StoreWord(addr uint32, v uint32) int {
	d.mem.Write32(addr, v)
	return d.latency
}

func (d *dramBacking) PeekWord(addr uint32) uint32 { return d.mem.Read32(addr) }

// GPU is a simulated device instance: one GPU chip plus its DRAM. It is not
// safe for concurrent use; campaigns run several at once, one per worker.
// A device from New lives as long as its owner keeps it. A campaign's
// devices are borrowed instead: the struct is theirs for one campaign, the
// storage under it (memory image, caches, cores) comes from the device pool
// and goes back to it on Release (see pool.go), and a fork vessel is rewound
// by Refork for every experiment in between.
type GPU struct {
	cfg *config.GPU
	storage

	cycle uint64

	// CycleLimit aborts any launch once the global cycle exceeds it
	// (0 = unlimited). Campaigns set it to twice the fault-free total.
	CycleLimit uint64

	// TraceWriter, when non-nil, receives one line per issued warp
	// instruction (cycle, core, warp, pc, active mask, disassembly) — the
	// debugging trace GPGPU-Sim emits with -trace_enabled. Tracing slows
	// simulation considerably; leave nil for campaigns.
	TraceWriter io.Writer

	// tracer, when non-nil, records fault-propagation events (see
	// trace.go). Set per experiment via EnableTrace; cleared by Refork.
	tracer *Tracer

	// access, when non-nil, records the fault-free last-read cycle of
	// every register and shared-memory word per launch (see access.go).
	// Set via EnableAccessLog for the adaptive planner's analytic
	// pre-pass; nil during campaigns.
	access *accessLog

	// Pending faults, sorted by cycle. The paper supports single or
	// multiple faults in the same entry, different entries, and different
	// hardware structures simultaneously — each pending spec is applied
	// independently when its cycle arrives.
	faults    []*FaultSpec
	faultRecs []*InjectionRecord
	faultRNG  *rand.Rand // over a lazyrand.Source; re-seeded per injection, kept by a fork vessel across experiments

	// The early end of a faulty run (see watch.go): whether the owner asked
	// for it, the liveness watch over what the fired faults changed, and the
	// verdict once the launch was stopped. onGolden says the stopped device is
	// still, cell for cell, the fault-free one between two cycles of the
	// launch base was captured in: no seed left a scar and no host call has
	// written to it since. watchOnly turns the dead-on-arrival rule off; only
	// tests set it, to hold that rule to the two that follow execution.
	stopWhenGolden bool
	watchOnly      bool
	watch          faultWatch
	stop           StopReason
	onGolden       bool
	base           *Snapshot // what the state was last restored from

	kernels   map[string]*KernelStats
	kernelSeq []string
	launches  []LaunchResult

	// current launch state
	curProg    *isa.Program
	curParams  []uint32
	curGrid    Dim
	curBlock   Dim
	nextCTA    int // next linear CTA id to schedule
	totalCTAs  int
	doneCTAs   int
	localBase  uint32
	localStep  uint32 // bytes of local memory per thread
	paramBase  uint32 // device address of the current launch's parameters
	progBase   uint32 // device address of the current kernel's binary image
	violation  error
	kernelStat *KernelStats

	// deepClone forces the eager fork protocol: no dirty-page tracking, no
	// shared slabs — every restore and capture copies the complete state.
	// Only tests set it (SetDeepClone), as the COW differential baseline.
	deepClone bool

	// mid-launch bookkeeping, held on the GPU (not the Launch frame) so a
	// snapshot captures it and a fork can resume the launch epilogue.
	launchStart uint64
	launchCores coreSet // cores that ran a CTA of the current launch
	launchInstr int64

	// snapshot-and-fork machinery (see snapshot.go)
	snapAt      []uint64              // pending capture cycles, ascending
	snapFn      func(*Snapshot) error // capture sink; an error aborts the run
	record      *recorder             // non-nil: record host-call results
	seek        *seekState            // non-nil: elide host calls until restore
	snapScratch []*GPU                // recycled snapshot templates for later captures, at most two
	ctx         context.Context       // optional cancellation for long launches
	ctxTick     uint32                // simulated cycles toward the next ctx poll

	// cycleCheck, when non-nil, runs at the end of every simulated cycle,
	// after commit and CTA refill. Only tests set it, to hold the cached
	// scheduler state to what a full scan would compute.
	cycleCheck func()
}

// ctxPollInterval is how many simulated cycles may elapse between context
// polls. Fast-forwarded spans count toward it (see fastForward), so even a
// launch whose cycle loop mostly skips memory latency in bulk observes
// cancellation — and the per-experiment wall-clock deadline — within ~1k
// simulated cycles. Polling never touches simulated state, so outcomes
// stay bit-identical with or without a context.
const ctxPollInterval = 1024

// coreSet is a set of core ids, one bit each.
type coreSet []uint64

func (s coreSet) add(id int)      { s[id>>6] |= 1 << uint(id&63) }
func (s coreSet) has(id int) bool { return s[id>>6]&(1<<uint(id&63)) != 0 }

// New builds a GPU from a validated configuration on storage of its own,
// allocated here: the device pool is not asked (Borrow is the call that
// asks it).
func New(cfg *config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &GPU{cfg: cfg, kernels: make(map[string]*KernelStats)}
	g.adopt(newStorage(cfg))
	return g, nil
}

// Config returns the GPU's configuration.
func (g *GPU) Config() *config.GPU { return g.cfg }

// Cycle returns the current global cycle.
func (g *GPU) Cycle() uint64 { return g.cycle }

// SetContext attaches a cancellation context. Long launches poll it
// periodically and abort with ctx.Err() once it is done, which is what
// makes multi-hour campaigns respond promptly to SIGINT or a deadline.
func (g *GPU) SetContext(ctx context.Context) { g.ctx = ctx }

// Malloc allocates device memory (cudaMalloc).
func (g *GPU) Malloc(size uint32) (uint32, error) {
	if g.seek != nil {
		c, err := g.seekNext(callMalloc)
		if err != nil {
			return 0, err
		}
		if c.size != size {
			return 0, g.diverged("Malloc", c.size, size)
		}
		return c.addr, nil
	}
	g.onGolden = false
	addr, err := g.mem.Alloc(size)
	if err == nil && g.record != nil {
		g.record.add(hostCall{kind: callMalloc, addr: addr, size: size})
	}
	return addr, err
}

// Free releases device memory (cudaFree).
func (g *GPU) Free(addr uint32) error {
	if g.seek != nil {
		c, err := g.seekNext(callFree)
		if err != nil {
			return err
		}
		if c.addr != addr {
			return g.diverged("Free", c.addr, addr)
		}
		return nil
	}
	g.onGolden = false
	if err := g.mem.Free(addr); err != nil {
		return err
	}
	if g.record != nil {
		g.record.add(hostCall{kind: callFree, addr: addr})
	}
	return nil
}

// MemcpyHtoD copies host bytes to device memory, keeping resident L2 lines
// coherent (as the copy engine does through the L2 on real parts).
func (g *GPU) MemcpyHtoD(dst uint32, src []byte) error {
	if g.seek != nil {
		c, err := g.seekNext(callHtoD)
		if err != nil {
			return err
		}
		if c.addr != dst || c.size != uint32(len(src)) {
			return g.diverged("MemcpyHtoD", c.addr, dst)
		}
		return nil // the snapshot already holds this copy's effect
	}
	g.onGolden = false
	if err := g.mem.HostWrite(dst, src); err != nil {
		return err
	}
	if g.record != nil {
		g.record.add(hostCall{kind: callHtoD, addr: dst, size: uint32(len(src))})
	}
	line := uint32(g.cfg.L2.LineBytes)
	for off := uint32(0); off < uint32(len(src)); {
		addr := dst + off
		chunk := line - addr%line
		if rem := uint32(len(src)) - off; chunk > rem {
			chunk = rem
		}
		g.l2.UpdateResident(addr, src[off:off+chunk])
		off += chunk
	}
	return nil
}

// MemcpyDtoH copies device memory to host bytes, overlaying resident
// (possibly dirty) L2 lines on the DRAM image.
func (g *GPU) MemcpyDtoH(dst []byte, src uint32) error {
	if g.seek != nil {
		c, err := g.seekNext(callDtoH)
		if err != nil {
			return err
		}
		if c.addr != src || len(c.data) != len(dst) {
			return g.diverged("MemcpyDtoH", c.addr, src)
		}
		copy(dst, c.data) // replay the recorded fault-free bytes
		return nil
	}
	if err := g.mem.HostRead(src, dst); err != nil {
		return err
	}
	line := uint32(g.cfg.L2.LineBytes)
	for off := uint32(0); off < uint32(len(dst)); {
		addr := src + off
		chunk := line - addr%line
		if rem := uint32(len(dst)) - off; chunk > rem {
			chunk = rem
		}
		if data := g.l2.PeekLine(addr); data != nil {
			lo := addr % line
			copy(dst[off:off+chunk], data[lo:lo+chunk])
		}
		off += chunk
	}
	if g.record != nil {
		g.record.add(hostCall{kind: callDtoH, addr: src, size: uint32(len(dst)),
			data: append([]byte(nil), dst...)})
	}
	return nil
}

// ArmFault schedules a fault injection for this GPU's lifetime. Must be
// called before the launch whose cycle window contains spec.Cycle. It may
// be called several times to inject multiple faults — in the same or in
// different hardware structures — within one execution (the paper's
// simultaneous multi-structure campaigns).
func (g *GPU) ArmFault(spec *FaultSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	g.faults = append(g.faults, spec)
	sort.SliceStable(g.faults, func(i, j int) bool { return g.faults[i].Cycle < g.faults[j].Cycle })
	return nil
}

// Injection returns the record of the first fault's application, or nil
// if no fault fired yet.
func (g *GPU) Injection() *InjectionRecord {
	if len(g.faultRecs) == 0 {
		return nil
	}
	return g.faultRecs[0]
}

// Injections returns the records of every fault applied so far, in firing
// order.
func (g *GPU) Injections() []*InjectionRecord { return g.faultRecs }

// KernelStats returns per-static-kernel profiling data, finalized.
func (g *GPU) KernelStats() map[string]*KernelStats {
	for _, k := range g.kernels {
		k.finalize()
	}
	return g.kernels
}

// KernelNames returns static kernel names in first-launch order.
func (g *GPU) KernelNames() []string { return g.kernelSeq }

// Launches returns the per-launch results in order.
func (g *GPU) Launches() []LaunchResult { return g.launches }

// L2 exposes the L2 cache (for injection and statistics).
func (g *GPU) L2() *cache.Cache { return g.l2 }

// CoreL1D returns core i's L1 data cache (nil if the model has none).
func (g *GPU) CoreL1D(i int) *cache.Cache { return g.cores[i].l1d }

// CoreL1T returns core i's L1 texture cache.
func (g *GPU) CoreL1T(i int) *cache.Cache { return g.cores[i].l1t }

// CoreL1C returns core i's L1 constant cache (nil if unconfigured).
func (g *GPU) CoreL1C(i int) *cache.Cache { return g.cores[i].l1c }

// Launch runs one kernel to completion (synchronous, like the paper's
// benchmark applications). Args are 32-bit parameter words read by LDC.
func (g *GPU) Launch(p *isa.Program, grid, block Dim, args ...uint32) (*LaunchResult, error) {
	if g.stop != NotStopped {
		return nil, ErrGoldenRun
	}
	if g.seek != nil {
		return g.seekLaunch(p)
	}
	res, err := g.launchSetup(p, grid, block, args)
	if err != nil {
		return res, err
	}
	res, err = g.runLaunch()
	if err == nil && g.record != nil {
		g.record.add(hostCall{kind: callLaunch, name: p.Name, launch: *res})
	}
	return res, err
}

// launchSetup validates the launch, stages parameters, the kernel binary
// image and local memory in device memory, places the initial CTAs, and
// opens the kernel's statistics window. runLaunch picks up from here; a
// fork restoring a mid-launch snapshot skips straight past it.
func (g *GPU) launchSetup(p *isa.Program, grid, block Dim, args []uint32) (*LaunchResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if block.Count() > g.cfg.MaxThreadsPerSM {
		return nil, fmt.Errorf("sim: block of %d threads exceeds SM limit %d", block.Count(), g.cfg.MaxThreadsPerSM)
	}
	if block.Count()*p.RegsPerThread > g.cfg.RegistersPerSM {
		return nil, fmt.Errorf("sim: kernel %s needs %d registers per CTA, SM has %d",
			p.Name, block.Count()*p.RegsPerThread, g.cfg.RegistersPerSM)
	}
	if p.SmemBytes > g.cfg.SmemPerSM {
		return nil, fmt.Errorf("sim: kernel %s needs %d B shared memory, SM has %d",
			p.Name, p.SmemBytes, g.cfg.SmemPerSM)
	}
	if grid.Count() <= 0 || block.Count() <= 0 {
		return nil, fmt.Errorf("sim: empty launch %v x %v", grid, block)
	}

	g.curProg = p
	g.curParams = args
	g.curGrid, g.curBlock = grid, block
	// Parameters live in device memory and are read through the constant
	// path (per-core L1C when configured).
	if len(args) > 0 {
		base, err := g.mem.Alloc(uint32(4 * len(args)))
		if err != nil {
			return nil, fmt.Errorf("sim: parameter memory: %v", err)
		}
		buf := make([]byte, 4*len(args))
		for i, a := range args {
			buf[4*i] = byte(a)
			buf[4*i+1] = byte(a >> 8)
			buf[4*i+2] = byte(a >> 16)
			buf[4*i+3] = byte(a >> 24)
		}
		if err := g.mem.HostWrite(base, buf); err != nil {
			return nil, err
		}
		g.paramBase = base
	} else {
		g.paramBase = 0
	}
	// The kernel binary lives in device memory so instruction fetches flow
	// through the L1 instruction caches (and instruction bits are
	// injectable, an extension over the paper).
	img := make([]byte, len(p.Instrs)*isa.InstrBytes)
	for i := range p.Instrs {
		word := isa.EncodeInstr(&p.Instrs[i])
		copy(img[i*isa.InstrBytes:], word[:])
	}
	imgBase, err := g.mem.Alloc(uint32(len(img)))
	if err != nil {
		return nil, fmt.Errorf("sim: instruction memory: %v", err)
	}
	if err := g.mem.HostWrite(imgBase, img); err != nil {
		return nil, err
	}
	g.progBase = imgBase
	g.nextCTA = 0
	g.totalCTAs = grid.Count()
	g.doneCTAs = 0
	g.violation = nil
	g.localStep = uint32(p.LocalBytes)
	g.localBase = 0
	if p.LocalBytes > 0 {
		total := uint32(p.LocalBytes) * uint32(grid.Count()*block.Count())
		base, err := g.mem.Alloc(total)
		if err != nil {
			return nil, fmt.Errorf("sim: local memory: %v", err)
		}
		g.localBase = base
	}

	ks := g.kernels[p.Name]
	if ks == nil {
		ks = &KernelStats{Name: p.Name}
		g.kernels[p.Name] = ks
		g.kernelSeq = append(g.kernelSeq, p.Name)
	}
	ks.Invocations++
	ks.RegsPerThread = p.RegsPerThread
	ks.SmemPerCTA = p.SmemBytes
	ks.LocalPerThr = p.LocalBytes
	g.kernelStat = ks

	g.launchStart = g.cycle
	if n := (len(g.cores) + 63) / 64; cap(g.launchCores) < n {
		g.launchCores = make(coreSet, n)
	} else {
		g.launchCores = g.launchCores[:n]
		clear(g.launchCores)
	}
	if g.access != nil {
		g.access.beginLaunch()
	}

	// Initial CTA placement, breadth-first across cores as the hardware
	// GigaThread scheduler does (one CTA per SM per pass until full).
	for placed := true; placed && g.nextCTA < g.totalCTAs; {
		placed = false
		for _, c := range g.cores {
			if g.nextCTA >= g.totalCTAs {
				break
			}
			if c.tryPlaceCTA(g.nextCTA) {
				g.launchCores.add(c.id)
				g.nextCTA++
				placed = true
			}
		}
	}

	g.launchInstr = ks.Instructions
	return nil, nil
}

// runLaunch drives the current launch's cycle loop to completion and
// closes out its statistics. It starts either right after launchSetup or
// from a restored mid-launch snapshot: every piece of state it touches
// lives on the GPU, never in a stack frame.
func (g *GPU) runLaunch() (*LaunchResult, error) {
	if g.base != nil {
		defer func(from uint64) { forkCycles.Add(int64(g.cycle - from)) }(g.cycle)
	}
	p := g.curProg
	ks := g.kernelStat
	for g.doneCTAs < g.totalCTAs {
		// Pending snapshot captures fire between cycles: the state handed
		// to the sink is "every cycle <= g.cycle executed, faults for
		// g.cycle+1 not yet applied", which is exactly where a fork resumes.
		for len(g.snapAt) > 0 && g.cycle >= g.snapAt[0] {
			g.snapAt = g.snapAt[1:]
			if err := g.snapFn(g.capture()); err != nil {
				g.releaseLaunch()
				return nil, err
			}
		}
		if g.ctx != nil {
			if g.ctxTick++; g.ctxTick >= ctxPollInterval {
				g.ctxTick = 0
				if err := g.ctx.Err(); err != nil {
					g.releaseLaunch()
					return nil, err
				}
			}
		}
		g.cycle++
		if g.CycleLimit > 0 && g.cycle > g.CycleLimit {
			g.releaseLaunch()
			return nil, &ErrTimeout{Kernel: p.Name, Cycle: g.cycle, Limit: g.CycleLimit}
		}
		for len(g.faults) > 0 && g.cycle >= g.faults[0].Cycle {
			g.applyFault(g.faults[0])
			g.faults = g.faults[1:]
		}
		if g.violation != nil {
			// An uncorrectable (DUE) ECC detection aborts at fault
			// application, before any warp issues this cycle.
			err := g.violation
			g.releaseLaunch()
			return nil, err
		}
		if g.watch.state == watchOpen && g.faultsSpentOnArrival() {
			// Inert or dead on arrival: nothing differs, and no warp has
			// issued since.
			return g.stopLaunch(true)
		}
		anyReady := false
		for _, c := range g.cores {
			if c.tick() {
				anyReady = true
			}
		}
		g.commitCycle()
		g.sampleStats(1)
		if g.violation != nil {
			err := g.violation
			g.releaseLaunch()
			return nil, err
		}
		// Refill freed CTA slots.
		if g.nextCTA < g.totalCTAs {
			for _, c := range g.cores {
				for g.nextCTA < g.totalCTAs && c.tryPlaceCTA(g.nextCTA) {
					g.launchCores.add(c.id)
					g.nextCTA++
				}
			}
		}
		if g.cycleCheck != nil {
			g.cycleCheck()
		}
		if g.watch.state == watchOpen && g.faultsSpent() {
			// The last corrupted cell died unread in this cycle.
			return g.stopLaunch(false)
		}
		if !anyReady && g.doneCTAs < g.totalCTAs {
			g.fastForward()
		}
	}
	// Kernel completion flushes the L1s, as GPGPU-Sim does at kernel
	// boundaries: dirty local data reaches L2, and stale read-only texture
	// lines cannot leak into the next launch.
	for _, c := range g.cores {
		if g.launchCores.has(c.id) {
			for _, l1 := range c.l1s() {
				if l1 != nil {
					l1.Flush()
				}
			}
		}
	}

	end := g.cycle
	ks.Windows = append(ks.Windows, CycleWindow{Start: g.launchStart, End: end})
	if g.access != nil {
		g.access.endLaunch(p.Name, g.launchStart, end)
	}
	ks.TotalCycles += end - g.launchStart
	for _, c := range g.cores {
		if g.launchCores.has(c.id) {
			ks.UsedCores = appendUnique(ks.UsedCores, c.id)
		}
	}
	sort.Ints(ks.UsedCores)

	res := LaunchResult{
		Kernel:       p.Name,
		Cycles:       end - g.launchStart,
		StartCycle:   g.launchStart,
		EndCycle:     end,
		Instructions: ks.Instructions - g.launchInstr,
	}
	g.launches = append(g.launches, res)
	g.releaseLaunch()
	return &res, nil
}

// commitCycle folds every core's per-cycle latches into GPU-global state
// in ascending core-ID order, after every core has finished its tick: of
// the violations raised in one cycle, the lowest core ID's is the launch's.
func (g *GPU) commitCycle() {
	for _, c := range g.cores {
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

// releaseLaunch clears per-launch core state (CTAs, warps) after
// completion or abort.
func (g *GPU) releaseLaunch() {
	for _, c := range g.cores {
		c.reset()
	}
	g.curProg = nil
	g.curParams = nil
	g.launchCores = g.launchCores[:0]
}

// fastForward advances the global clock to the next cycle at which any
// warp becomes ready (memory latency skipping), bounded by the pending
// injection cycle and the cycle limit, accumulating statistics for the
// skipped span.
func (g *GPU) fastForward() {
	next := uint64(0)
	for _, c := range g.cores {
		// A stalled core's last tick already recorded when it wakes; only
		// a core whose state moved since (CTA refill) needs the scan.
		t := c.readyAt
		if t == 0 {
			t = c.nextReadyCycle()
		}
		if t > 0 && (next == 0 || t < next) {
			next = t
		}
	}
	if next <= g.cycle+1 {
		return
	}
	target := next - 1 // loop will ++ to `next`
	if len(g.faults) > 0 && g.faults[0].Cycle > g.cycle && g.faults[0].Cycle-1 < target {
		target = g.faults[0].Cycle - 1
	}
	if len(g.snapAt) > 0 && g.snapAt[0] < target {
		// Stop on a pending capture cycle so the snapshot observes it.
		target = g.snapAt[0]
	}
	if g.CycleLimit > 0 && g.CycleLimit < target {
		target = g.CycleLimit
	}
	if target > g.cycle {
		// Skipped cycles still count toward the context-poll interval:
		// without this, a launch dominated by latency skipping would poll
		// (nearly) never and a hung-experiment deadline could not fire.
		if span := target - g.cycle; span >= ctxPollInterval {
			g.ctxTick = ctxPollInterval
		} else {
			g.ctxTick += uint32(span)
		}
		g.sampleStats(float64(target - g.cycle))
		g.cycle = target
	}
}

// l2QueueDelay models bank contention: the line's bank is occupied for
// L2QueueCycles per request; a request to a busy bank waits its turn.
// Returns the extra wait in cycles (0 when queueing is disabled).
func (g *GPU) l2QueueDelay(lineAddr uint32) int {
	q := uint64(g.cfg.L2QueueCycles)
	if q == 0 {
		return 0
	}
	bank := int(lineAddr/uint32(g.cfg.L2.LineBytes)) % g.cfg.L2Banks
	free := g.bankFree[bank]
	if free < g.cycle {
		free = g.cycle
	}
	g.bankFree[bank] = free + q
	return int(free - g.cycle)
}

// sampleStats accumulates cycle-weighted occupancy statistics with weight w.
func (g *GPU) sampleStats(w float64) {
	ks := g.kernelStat
	if ks == nil {
		return
	}
	maxWarps := float64(g.cfg.MaxWarpsPerSM())
	for _, c := range g.cores {
		if len(c.ctas) == 0 {
			continue
		}
		ks.accActiveSM += w
		ks.accThreads += w * float64(c.liveThreads)
		ks.accCTAs += w * float64(len(c.ctas))
		ks.accWarpOcc += w * float64(c.liveWarps) / maxWarps
	}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// applyFault performs one armed injection at the current cycle, choosing
// the container among the live candidates with the spec's seed.
func (g *GPU) applyFault(spec *FaultSpec) {
	rec := &InjectionRecord{
		Structure: spec.Structure,
		Cycle:     g.cycle,
		Core:      -1, Warp: -1, Thread: -1, CTA: -1,
	}
	g.faultRecs = append(g.faultRecs, rec)
	if g.watch.state == watchIdle {
		g.watch.state = watchClosed
		if g.stopWhenGolden {
			g.watch.state, g.watch.last, g.watch.born = watchOpen, StopInert, g.cycle
		}
	}
	// The draws equal a fresh rand.New(rand.NewSource(spec.Seed)); the lazy
	// source computes only the state words the one or two draws read.
	if g.faultRNG == nil {
		g.faultRNG = rand.New(lazyrand.New(spec.Seed))
	} else {
		g.faultRNG.Seed(spec.Seed)
	}
	rng := g.faultRNG
	switch spec.Structure {
	case StructRegFile:
		g.injectRegFile(spec, rec, rng)
	case StructLocal:
		g.injectLocal(spec, rec, rng)
	case StructShared:
		g.injectShared(spec, rec, rng)
	case StructL1D:
		g.injectL1(spec, rec, rng, true)
	case StructL1T:
		g.injectL1(spec, rec, rng, false)
	case StructL2:
		g.injectL2(spec, rec)
	case StructL1C:
		g.injectL1C(spec, rec, rng)
	case StructL1I:
		g.injectL1I(spec, rec, rng)
	}
	if g.tracer != nil {
		g.tracer.injectEvent(g.cycle, spec.Structure.String(), rec.Core, rec.Warp,
			spec.BitPositions, rec.Detail)
	}
}
