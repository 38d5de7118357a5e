package sim

import (
	"fmt"

	"gpufi/internal/isa"
)

// This file is the fault-propagation tracer: an opt-in, ring-buffered
// event recorder that explains *how* an injected bit flip travelled from
// its container to its terminal outcome. It tracks a taint set over
// architectural cells — registers (per thread), shared-memory words (per
// CTA) and device-memory words (absolute addresses, covering local and
// global space wherever the data is cached) — seeded at the injection
// site and propagated by the instruction-level hooks in exec.go:
//
//	inject      the fault fired (structure, cycle, SM, bit positions)
//	first_read  the first architectural read of any corrupted cell
//	            (instruction PC, warp slot, lane)
//	taint       a clean cell received a corrupted value (reg->reg,
//	            mem->reg, reg->mem, smem->reg, reg->smem)
//	clear       a corrupted cell was overwritten with clean data
//	classify    the campaign's verdict (appended by internal/core)
//
// Tracing is purely observational: hooks read simulated state and tracer
// state only, never modify either, so outcomes with tracing on are
// bit-identical to outcomes with tracing off — and since no wall-clock or
// randomness enters an event, the trace bytes themselves are identical
// across worker counts and -race runs.
//
// Known approximations (documented in DESIGN.md "Observability"): cache
// array injections are not cell-tracked — the flip lives in a tag or a
// line copy, and taint here is addressed architecturally — so their
// consumption is observed through the cache's own hook counters instead;
// predicate registers absorb taint silently (the read is recorded, the
// predicate is not tracked); threads with more than 64 registers conflate
// the high registers on one taint bit; a tainted address operand is not a
// read (traceLoad, traceStore and traceShared* look only at the data, so a
// load through a corrupted pointer records nothing and taints nothing);
// shared-memory taint is keyed by CTA id and outlives the CTA, so the
// same-numbered CTA of the next launch inherits it. The liveness watch that
// ends a run early (watch.go) shares none of these — it counts every
// operand field as a read and follows the cells themselves — and it keeps a
// traced run going while taint of the last kind is left, so that a trace is
// the same bytes whether or not the run was stopped.

// Trace ring sizing: the first traceHeadEvents events and the last
// traceTailEvents events are kept, so the injection site and the
// pre-classification activity both survive arbitrarily chatty middles.
const (
	traceHeadEvents = 128
	traceTailEvents = 128

	// maxTaintWords bounds each of the memory taint sets; beyond it new
	// words saturate silently (deterministically) instead of growing an
	// adversarial experiment's tracer without bound.
	maxTaintWords = 1 << 16
)

// TraceEvent is one propagation event. Site fields (Core, Warp, Lane, PC)
// are -1 where not applicable (injection and classification records).
type TraceEvent struct {
	Ev        string  `json:"ev"`
	Cycle     uint64  `json:"cycle"`
	Structure string  `json:"structure,omitempty"`
	Core      int     `json:"core"`
	Warp      int     `json:"warp"`
	Lane      int     `json:"lane"`
	PC        int     `json:"pc"`
	Kind      string  `json:"kind,omitempty"` // taint-hop direction
	Cell      string  `json:"cell,omitempty"` // cell id: r3@t17, mem[0x40], smem[0x40]@cta2
	Bits      []int64 `json:"bits,omitempty"`
	Outcome   string  `json:"outcome,omitempty"`
	Why       string  `json:"why,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// TraceSummary aggregates a tracer's propagation counters — the input to
// the campaign layer's masked/SDC sub-classification.
type TraceSummary struct {
	Injected      bool  // at least one inject event was recorded
	Cells         int   // cells ever tainted (injection seeds + hops)
	Live          int   // cells still tainted at end of run
	Reads         int   // architectural reads of tainted cells
	Overwrites    int   // tainted cells overwritten with clean data
	Hops          int   // propagation hops (new cells tainted by reads/writes)
	CacheInjected bool  // an injection targeted a cache array (not cell-tracked)
	CacheReads    int64 // cache injection hooks that fired on a read hit
	Dropped       int   // events lost to the ring buffer
}

// traceSite is the architectural site of the instruction currently
// executing — the coordinates stamped on read/taint/clear events.
type traceSite struct {
	cycle uint64
	core  int
	warp  int
	lane  int
	pc    int
}

// Tracer records propagation events for one experiment. It is owned by
// exactly one GPU and is not safe for concurrent use (neither is the GPU).
type Tracer struct {
	head     []TraceEvent // first traceHeadEvents events
	tail     []TraceEvent // ring of the last traceTailEvents events
	tailNext int
	dropped  int

	memTaint  map[uint32]struct{} // tainted device-memory words (local + global)
	smemTaint map[uint64]struct{} // tainted shared words: ctaID<<32 | wordOff

	cells         int
	live          int
	reads         int
	overwrites    int
	hops          int
	firstReadSeen bool
	injected      bool
	cacheInjected bool
}

func newTracer() *Tracer {
	return &Tracer{
		head:      make([]TraceEvent, 0, traceHeadEvents),
		memTaint:  make(map[uint32]struct{}),
		smemTaint: make(map[uint64]struct{}),
	}
}

// EnableTrace attaches a fresh propagation tracer to this GPU. Campaigns
// call it once per experiment, after the vessel is forked and before the
// fault is armed; the previous experiment's tracer (if any) is dropped.
func (g *GPU) EnableTrace() { g.tracer = newTracer() }

// Tracing reports whether a propagation tracer is attached.
func (g *GPU) Tracing() bool { return g.tracer != nil }

// TraceEvents returns the recorded events in order: the head (first
// events, always containing the injection) followed by the tail ring
// (the most recent events). Returns nil when tracing is disabled.
func (g *GPU) TraceEvents() []TraceEvent {
	tr := g.tracer
	if tr == nil {
		return nil
	}
	out := make([]TraceEvent, 0, len(tr.head)+len(tr.tail))
	out = append(out, tr.head...)
	if len(tr.tail) == traceTailEvents {
		out = append(out, tr.tail[tr.tailNext:]...)
		out = append(out, tr.tail[:tr.tailNext]...)
	} else {
		out = append(out, tr.tail...)
	}
	return out
}

// TraceSummary returns the tracer's propagation counters, folding in the
// cache-hook counters of every cache level (the observation channel for
// non-cell-tracked cache injections). Returns nil when tracing is off.
func (g *GPU) TraceSummary() *TraceSummary {
	tr := g.tracer
	if tr == nil {
		return nil
	}
	s := &TraceSummary{
		Injected: tr.injected, Cells: tr.cells, Live: tr.live,
		Reads: tr.reads, Overwrites: tr.overwrites, Hops: tr.hops,
		CacheInjected: tr.cacheInjected, Dropped: tr.dropped,
	}
	if tr.cacheInjected {
		if g.l2 != nil {
			s.CacheReads += g.l2.Stats().HookFires
		}
		for _, c := range g.cores {
			if c == nil {
				continue
			}
			if c.l1d != nil {
				s.CacheReads += c.l1d.Stats().HookFires
			}
			if c.l1t != nil {
				s.CacheReads += c.l1t.Stats().HookFires
			}
			if c.l1c != nil {
				s.CacheReads += c.l1c.Stats().HookFires
			}
			if c.l1i != nil {
				s.CacheReads += c.l1i.Stats().HookFires
			}
		}
	}
	return s
}

// emit appends an event: the head fills first, then the tail ring keeps
// the most recent events, dropping the oldest mid-run ones.
func (tr *Tracer) emit(ev TraceEvent) {
	if len(tr.head) < traceHeadEvents {
		tr.head = append(tr.head, ev)
		return
	}
	if len(tr.tail) < traceTailEvents {
		tr.tail = append(tr.tail, ev)
		return
	}
	tr.tail[tr.tailNext] = ev
	tr.tailNext = (tr.tailNext + 1) % traceTailEvents
	tr.dropped++
}

// regBit maps a register index onto the lane's 64-bit taint word;
// registers past 63 share the top bit (a documented approximation).
func regBit(r uint8) uint64 {
	if r >= 63 {
		return 1 << 63
	}
	return 1 << r
}

// allocated reports whether r names a register the warp's threads hold (RZ
// and indices past the allocation do not, and carry no taint).
func (s *laneState) allocated(r uint8) bool { return s.dst(r) != nil }

// taintedReg reports whether register r of the lane's thread is tainted.
func (s *laneState) taintedReg(lane int, r uint8) bool {
	return s.allocated(r) && s.taint[lane]&regBit(r) != 0
}

func cellReg(w *warp, lane int, r uint8) string {
	return fmt.Sprintf("r%d@t%d", r, w.lanes.gtid[lane])
}
func cellMem(addr uint32) string          { return fmt.Sprintf("mem[%#x]", addr&^3) }
func cellSmem(cta int, off uint32) string { return fmt.Sprintf("smem[%#x]@cta%d", off&^3, cta) }

// injectEvent records the application of one armed fault.
func (tr *Tracer) injectEvent(cycle uint64, structure string, coreID, warp int, bits []int64, detail string) {
	tr.injected = true
	tr.emit(TraceEvent{
		Ev: "inject", Cycle: cycle, Structure: structure,
		Core: coreID, Warp: warp, Lane: -1, PC: -1,
		Bits: bits, Detail: detail,
	})
}

// seedReg marks allocated register reg of a lane as corrupted at injection
// time (no event: the inject record covers the seeds).
func (tr *Tracer) seedReg(st *laneState, lane, reg int) {
	b := regBit(uint8(reg))
	if st.taint[lane]&b == 0 {
		st.taint[lane] |= b
		tr.cells++
		tr.live++
	}
}

// seedMem marks the device-memory word holding addr as corrupted.
func (tr *Tracer) seedMem(addr uint32) {
	w := addr &^ 3
	if _, ok := tr.memTaint[w]; ok {
		return
	}
	if len(tr.memTaint) >= maxTaintWords {
		return
	}
	tr.memTaint[w] = struct{}{}
	tr.cells++
	tr.live++
}

// seedSmem marks a CTA's shared-memory word as corrupted.
func (tr *Tracer) seedSmem(cta int, off uint32) {
	k := uint64(cta)<<32 | uint64(off&^3)
	if _, ok := tr.smemTaint[k]; ok {
		return
	}
	if len(tr.smemTaint) >= maxTaintWords {
		return
	}
	tr.smemTaint[k] = struct{}{}
	tr.cells++
	tr.live++
}

// markCacheInjection flags that an injection targeted a cache array,
// whose consumption is observed via cache hook counters, not cell taint.
func (tr *Tracer) markCacheInjection() { tr.cacheInjected = true }

// readCell records an architectural read of a tainted cell. Only the
// first read emits an event; later reads are counted.
func (tr *Tracer) readCell(s traceSite, cell string) {
	tr.reads++
	if tr.firstReadSeen {
		return
	}
	tr.firstReadSeen = true
	tr.emit(TraceEvent{
		Ev: "first_read", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc, Cell: cell,
	})
}

// taintReg propagates taint into a destination register; a newly tainted
// cell emits a hop event.
func (tr *Tracer) taintReg(w *warp, r uint8, s traceSite, kind string) {
	st := w.st
	if !st.allocated(r) {
		return
	}
	b := regBit(r)
	if st.taint[s.lane]&b != 0 {
		return
	}
	st.taint[s.lane] |= b
	tr.cells++
	tr.live++
	tr.hops++
	tr.emit(TraceEvent{
		Ev: "taint", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: kind, Cell: cellReg(w, s.lane, r),
	})
}

// clearReg records a clean overwrite of a tainted register.
func (tr *Tracer) clearReg(w *warp, r uint8, s traceSite) {
	if !w.st.taintedReg(s.lane, r) {
		return
	}
	w.st.taint[s.lane] &^= regBit(r)
	tr.live--
	tr.overwrites++
	tr.emit(TraceEvent{
		Ev: "clear", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: "overwrite", Cell: cellReg(w, s.lane, r),
	})
}

// memTainted reports whether the device-memory word at addr is tainted.
func (tr *Tracer) memTainted(addr uint32) bool {
	if len(tr.memTaint) == 0 {
		return false
	}
	_, ok := tr.memTaint[addr&^3]
	return ok
}

// taintMem propagates taint into a device-memory word.
func (tr *Tracer) taintMem(addr uint32, s traceSite, kind string) {
	w := addr &^ 3
	if _, ok := tr.memTaint[w]; ok {
		return
	}
	if len(tr.memTaint) >= maxTaintWords {
		return
	}
	tr.memTaint[w] = struct{}{}
	tr.cells++
	tr.live++
	tr.hops++
	tr.emit(TraceEvent{
		Ev: "taint", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: kind, Cell: cellMem(w),
	})
}

// clearMem records a clean overwrite of a tainted device-memory word.
func (tr *Tracer) clearMem(addr uint32, s traceSite) {
	w := addr &^ 3
	if _, ok := tr.memTaint[w]; !ok {
		return
	}
	delete(tr.memTaint, w)
	tr.live--
	tr.overwrites++
	tr.emit(TraceEvent{
		Ev: "clear", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: "overwrite", Cell: cellMem(w),
	})
}

// smemTainted reports whether a CTA's shared word is tainted.
func (tr *Tracer) smemTainted(cta int, off uint32) bool {
	if len(tr.smemTaint) == 0 {
		return false
	}
	_, ok := tr.smemTaint[uint64(cta)<<32|uint64(off&^3)]
	return ok
}

// taintSmem propagates taint into a CTA's shared word.
func (tr *Tracer) taintSmem(cta int, off uint32, s traceSite, kind string) {
	k := uint64(cta)<<32 | uint64(off&^3)
	if _, ok := tr.smemTaint[k]; ok {
		return
	}
	if len(tr.smemTaint) >= maxTaintWords {
		return
	}
	tr.smemTaint[k] = struct{}{}
	tr.cells++
	tr.live++
	tr.hops++
	tr.emit(TraceEvent{
		Ev: "taint", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: kind, Cell: cellSmem(cta, off),
	})
}

// clearSmem records a clean overwrite of a tainted shared word.
func (tr *Tracer) clearSmem(cta int, off uint32, s traceSite) {
	k := uint64(cta)<<32 | uint64(off&^3)
	if _, ok := tr.smemTaint[k]; !ok {
		return
	}
	delete(tr.smemTaint, k)
	tr.live--
	tr.overwrites++
	tr.emit(TraceEvent{
		Ev: "clear", Cycle: s.cycle,
		Core: s.core, Warp: s.warp, Lane: s.lane, PC: s.pc,
		Kind: "overwrite", Cell: cellSmem(cta, off),
	})
}

// site captures the current instruction's architectural coordinates.
func (c *core) site(w *warp, lane int) traceSite {
	return traceSite{cycle: c.gpu.cycle, core: c.id, warp: w.slot, lane: lane, pc: c.pcOf(w)}
}

// traceALU propagates taint for one lane of a non-memory instruction:
// a tainted source is a read (and taints the destination); an untainted
// write over a tainted destination clears it.
func (c *core) traceALU(w *warp, lane int, in *isa.Instr, wrotePred bool) {
	tr, st := c.gpu.tracer, w.st
	var src uint8
	switch {
	case st.taintedReg(lane, in.SrcA):
		src = in.SrcA
	case !in.HasImm && st.taintedReg(lane, in.SrcB):
		src = in.SrcB
	case st.taintedReg(lane, in.SrcC):
		src = in.SrcC
	default:
		if !wrotePred {
			tr.clearReg(w, in.Dst, c.site(w, lane))
		}
		return
	}
	s := c.site(w, lane)
	tr.readCell(s, cellReg(w, lane, src))
	if !wrotePred {
		tr.taintReg(w, in.Dst, s, "reg->reg")
	}
}

// traceRegOverwrite handles destinations written from untainted sources
// outside the ALU path (S2R special registers, LDC parameter loads).
func (c *core) traceRegOverwrite(w *warp, lane int, r uint8) {
	c.gpu.tracer.clearReg(w, r, c.site(w, lane))
}

// traceLoad propagates taint for one lane of a global/local/texture load.
func (c *core) traceLoad(w *warp, lane int, dst uint8, addr uint32) {
	tr := c.gpu.tracer
	if tr.memTainted(addr) {
		s := c.site(w, lane)
		tr.readCell(s, cellMem(addr))
		tr.taintReg(w, dst, s, "mem->reg")
		return
	}
	if w.st.taint[lane] != 0 {
		tr.clearReg(w, dst, c.site(w, lane))
	}
}

// traceStore propagates taint for one lane of a global/local store.
func (c *core) traceStore(w *warp, lane int, src uint8, addr uint32) {
	tr := c.gpu.tracer
	if w.st.taintedReg(lane, src) {
		s := c.site(w, lane)
		tr.readCell(s, cellReg(w, lane, src))
		tr.taintMem(addr, s, "reg->mem")
		return
	}
	if len(tr.memTaint) != 0 {
		tr.clearMem(addr, c.site(w, lane))
	}
}

// traceSharedLoad propagates taint for one lane of an LDS.
func (c *core) traceSharedLoad(w *warp, lane int, dst uint8, cta int, off uint32) {
	tr := c.gpu.tracer
	if tr.smemTainted(cta, off) {
		s := c.site(w, lane)
		tr.readCell(s, cellSmem(cta, off))
		tr.taintReg(w, dst, s, "smem->reg")
		return
	}
	if w.st.taint[lane] != 0 {
		tr.clearReg(w, dst, c.site(w, lane))
	}
}

// traceSharedStore propagates taint for one lane of an STS.
func (c *core) traceSharedStore(w *warp, lane int, src uint8, cta int, off uint32) {
	tr := c.gpu.tracer
	if w.st.taintedReg(lane, src) {
		s := c.site(w, lane)
		tr.readCell(s, cellReg(w, lane, src))
		tr.taintSmem(cta, off, s, "reg->smem")
		return
	}
	if len(tr.smemTaint) != 0 {
		tr.clearSmem(cta, off, c.site(w, lane))
	}
}
