package sim

import (
	"fmt"
	"reflect"
	"testing"

	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/isa"
)

// This file holds the warp-wide execute and executeMem to per-lane
// references. The references are the lane loops the production code
// replaced — one thread at a time, an opcode switch, a mem.Valid search and
// a cache lookup per lane — kept here as oracles; they share the state
// layout with production (there is only one) and nothing else above the
// cache and memory packages' single-word calls.

func refReadReg(w *warp, lane int, r uint8) uint32 {
	if r == isa.RegRZ || int(r)*isa.WarpSize >= len(w.st.regs) {
		return 0
	}
	return w.st.regs[int(r)*isa.WarpSize+lane]
}

func refWriteReg(w *warp, lane int, r uint8, v uint32) {
	if r != isa.RegRZ && int(r)*isa.WarpSize < len(w.st.regs) {
		w.st.regs[int(r)*isa.WarpSize+lane] = v
	}
}

func refReadPred(w *warp, lane int, p uint8) bool {
	if p == isa.PredPT {
		return true
	}
	return p < isa.NumPreds && w.st.preds[p]>>lane&1 != 0
}

// refExecuteALU is the per-lane ALU loop: isa.EvalALU once per active lane.
func refExecuteALU(w *warp, in *isa.Instr, eff uint32) {
	for lane := 0; lane < isa.WarpSize; lane++ {
		if eff&(1<<lane) == 0 {
			continue
		}
		a := refReadReg(w, lane, in.SrcA)
		b := uint32(in.Imm)
		if !in.HasImm {
			b = refReadReg(w, lane, in.SrcB)
		}
		val, pred, ok := isa.EvalALU(in.Op, in.Cond, a, b, refReadReg(w, lane, in.SrcC), refReadPred(w, lane, in.PSrc))
		switch {
		case !ok:
		case !in.Op.WritesPred():
			refWriteReg(w, lane, in.Dst, val)
		case in.PDst < isa.NumPreds && pred:
			w.st.preds[in.PDst] |= 1 << lane
		case in.PDst < isa.NumPreds:
			w.st.preds[in.PDst] &^= 1 << lane
		}
	}
}

// refExecuteMem is the per-lane executeMem: address generation, validation
// and routing decided lane by lane, then LoadWord / StoreWordLocal — a set
// lookup — for every active lane.
func refExecuteMem(c *core, w *warp, in *isa.Instr, eff uint32) int {
	g := c.gpu
	if eff == 0 {
		return g.cfg.ALULatency
	}
	if in.Op == isa.OpLDS || in.Op == isa.OpSTS {
		smem := w.cta.smem
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			addr := refReadReg(w, lane, in.SrcA) + uint32(in.Imm)
			if uint64(addr)+4 > uint64(len(smem)) || addr%4 != 0 {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "shared"})
				return 0
			}
			if in.Op == isa.OpLDS {
				refWriteReg(w, lane, in.Dst, uint32(smem[addr])|uint32(smem[addr+1])<<8|
					uint32(smem[addr+2])<<16|uint32(smem[addr+3])<<24)
			} else {
				v := refReadReg(w, lane, in.SrcC)
				smem[addr], smem[addr+1], smem[addr+2], smem[addr+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
		return g.cfg.SmemLatency
	}

	var addrs [isa.WarpSize]uint32
	for lane := 0; lane < isa.WarpSize; lane++ {
		if eff&(1<<lane) == 0 {
			continue
		}
		addr := refReadReg(w, lane, in.SrcA) + uint32(in.Imm)
		switch in.Op {
		case isa.OpLDL, isa.OpSTL:
			if addr%4 != 0 {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "local"})
				return 0
			}
			if uint64(addr)+4 > uint64(g.localStep) && !g.cfg.LenientMemory {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "local"})
				return 0
			}
			addr = w.lanes.localBase[lane] + addr
		default:
			if addr%4 != 0 {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "global"})
				return 0
			}
			if !g.mem.Valid(addr, 4) && !g.cfg.LenientMemory {
				c.fail(&MemViolation{Kernel: g.curProg.Name, PC: c.pcOf(w), Op: in.Op,
					Addr: addr, Space: "global"})
				return 0
			}
		}
		addrs[lane] = addr
	}

	local := in.Op == isa.OpLDL || in.Op == isa.OpSTL
	l1 := c.l1d
	if in.Op == isa.OpTLD {
		l1 = c.l1t
	}
	lineSize := uint32(g.cfg.L2.LineBytes)
	if l1 != nil {
		lineSize = uint32(l1.Geometry().LineBytes)
	}
	var lines []uint32
	for lane := 0; lane < isa.WarpSize; lane++ {
		if eff&(1<<lane) == 0 {
			continue
		}
		la := addrs[lane] &^ (lineSize - 1)
		dup := false
		for _, x := range lines {
			if x == la {
				dup = true
				break
			}
		}
		if !dup {
			lines = append(lines, la)
		}
	}

	maxCost := 0
	if in.Op.IsLoad() {
		for _, la := range lines {
			if cost := c.lineRead(l1, la); cost > maxCost {
				maxCost = cost
			}
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			v := g.l2.LoadWord(addrs[lane])
			if l1 != nil {
				v = l1.LoadWord(addrs[lane])
			}
			refWriteReg(w, lane, in.Dst, v)
		}
	} else {
		mode := cache.ModeGlobal
		if local {
			mode = cache.ModeLocal
		}
		for _, la := range lines {
			if cost := c.lineWrite(l1, la, mode); cost > maxCost {
				maxCost = cost
			}
		}
		for lane := 0; lane < isa.WarpSize; lane++ {
			if eff&(1<<lane) == 0 {
				continue
			}
			v := refReadReg(w, lane, in.SrcC)
			switch {
			case l1 == nil:
				g.l2.StoreWordLocal(addrs[lane], v)
			case mode == cache.ModeLocal:
				l1.StoreWordLocal(addrs[lane], v)
			default:
				g.l2.StoreWordLocal(addrs[lane], v)
			}
		}
	}
	return maxCost + (len(lines)-1)*lineServiceInterval
}

// warpRig is one GPU holding a single resident warp of rigAsm mid-launch,
// with dirty-page and touched-line tracking on everywhere so that two rigs
// can be compared down to those sets.
type warpRig struct {
	g   *GPU
	c   *core
	w   *warp
	buf uint32 // a rigBufBytes device buffer
}

const (
	rigRegs     = 12
	rigBufBytes = 256 << 10
	rigAsm      = ".kernel rig\n.reg 12\n.smem 512\n.local 16\n\tEXIT\n"
)

func newWarpRig(t *testing.T, cfg *config.GPU) *warpRig {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := g.Malloc(rigBufBytes)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, rigBufBytes)
	for i := range img {
		img[i] = byte(i*131 + i>>8)
	}
	if err := g.MemcpyHtoD(buf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := g.launchSetup(mustAssemble(t, rigAsm), Dim1(1), Dim1(32), nil); err != nil {
		t.Fatal(err)
	}
	g.mem.StartTracking()
	g.l2.StartTracking()
	c := g.cores[0]
	for _, l1 := range []*cache.Cache{c.l1d, c.l1t} {
		if l1 != nil {
			l1.StartTracking()
		}
	}
	g.cycle = 100
	return &warpRig{g: g, c: c, w: c.warps[0], buf: buf}
}

// setReg fills register r of every lane.
func (r *warpRig) setReg(reg int, f func(lane int) uint32) {
	for lane := 0; lane < isa.WarpSize; lane++ {
		r.w.st.regs[reg*isa.WarpSize+lane] = f(lane)
	}
}

// violation returns, and clears, what the last instruction raised: still
// latched on the core, since the rig runs no end-of-cycle fold.
func (r *warpRig) violation() error {
	err := r.c.viol
	r.c.viol, r.c.stop = nil, false
	return err
}

// diffRigs compares everything an instruction can have moved: lane state,
// shared memory, and — field by unexported field, through the backing
// pointers down to the device memory image and its dirty-page set — every
// cache the core reaches: tags, valid and dirty bits, LRU stamps, line data,
// armed hooks, statistics, resident and touched sets.
func diffRigs(got, want *warpRig) error {
	if !reflect.DeepEqual(got.w.st, want.w.st) {
		for i := range want.w.st.regs {
			if g, w := got.w.st.regs[i], want.w.st.regs[i]; g != w {
				return fmt.Errorf("R%d lane %d = %#x, want %#x", i/isa.WarpSize, i%isa.WarpSize, g, w)
			}
		}
		return fmt.Errorf("lane state differs: preds %08x exited %08x, want %08x %08x",
			got.w.st.preds, got.w.st.exited, want.w.st.preds, want.w.st.exited)
	}
	if !reflect.DeepEqual(got.w.cta.smem, want.w.cta.smem) {
		return fmt.Errorf("shared memory differs")
	}
	for _, p := range []struct {
		name      string
		got, want *cache.Cache
	}{
		{"L1D", got.c.l1d, want.c.l1d}, {"L1T", got.c.l1t, want.c.l1t}, {"L2", got.g.l2, want.g.l2},
	} {
		if reflect.DeepEqual(p.got, p.want) {
			continue
		}
		return fmt.Errorf("%s differs: stats %+v, %d valid, %d touched; want %+v, %d valid, %d touched (or line contents, dirty bits, LRU order, the level below)",
			p.name, p.got.Stats(), p.got.ValidLines(), p.got.TouchedLines(),
			p.want.Stats(), p.want.ValidLines(), p.want.TouchedLines())
	}
	if !reflect.DeepEqual(got.g.bankFree, want.g.bankFree) {
		return fmt.Errorf("L2 bank queues differ: %v, want %v", got.g.bankFree, want.g.bankFree)
	}
	return nil
}

// TestExecuteMatchesScalar drives core.execute over every ALU/SFU opcode
// and condition with register fields that are allocated, RZ, and past the
// allocation, with and without an immediate, under full, partial and empty
// masks — and requires the lane state the per-lane isa.EvalALU loop leaves.
// (isa.TestEvalWarpMatchesScalar covers the operand values; this covers
// which row each field reads and writes.)
func TestExecuteMatchesScalar(t *testing.T) {
	got, want := newWarpRig(t, testConfig()), newWarpRig(t, testConfig())
	fill := func(r *warpRig) {
		for reg := 0; reg < rigRegs; reg++ {
			r.setReg(reg, func(lane int) uint32 { return uint32(reg*0x01010101+lane*0x10204081) ^ uint32(lane%3)<<31 })
		}
		for p := 0; p < isa.NumPreds; p++ {
			r.w.st.preds[p] = 0x9E3779B9 * uint32(p+1)
		}
	}
	fields := []uint8{0, 5, rigRegs - 1, rigRegs, 63, 200, isa.RegRZ}
	masks := []uint32{0xFFFFFFFF, 0x0FF0F00F, 1 << 17, 0}
	n := 0
	for op := isa.Op(0); op.Valid(); op++ {
		if _, _, ok := isa.EvalALU(op, isa.CondEQ, 0, 0, 0, false); !ok {
			continue
		}
		conds := []isa.Cond{isa.CondEQ}
		if op.WritesPred() {
			conds = []isa.Cond{isa.CondEQ, isa.CondNE, isa.CondLT, isa.CondLE, isa.CondGT, isa.CondGE}
		}
		for _, cond := range conds {
			for i, dst := range fields {
				for j, src := range fields {
					in := isa.Instr{Op: op, Cond: cond, Dst: dst, PDst: uint8((i + j) % (isa.NumPreds + 1)),
						SrcA: src, SrcB: fields[(i+j)%len(fields)], SrcC: fields[(i+2*j+1)%len(fields)],
						PSrc: uint8((i * j) % (isa.NumPreds + 1)), Imm: int32(0x80000000 | uint32(i*977+j)),
						HasImm: (i+j)%2 == 1, Guard: isa.PredPT, Reconv: -1}
					mask := masks[n%len(masks)]
					n++
					fill(got)
					fill(want)
					latency := got.c.execute(got.w, &in, mask)
					refExecuteALU(want.w, &in, mask)
					if err := diffRigs(got, want); err != nil {
						t.Fatalf("%s (HasImm=%v) mask %08x: %v", in.String(), in.HasImm, mask, err)
					}
					wantLatency := got.g.cfg.ALULatency
					if op.Class() == isa.ClassSFU {
						wantLatency = got.g.cfg.SFULatency
					}
					if latency != wantLatency {
						t.Fatalf("%s mask %08x: latency %d, want %d", in.String(), mask, latency, wantLatency)
					}
				}
			}
		}
	}
	if n < 1000 {
		t.Fatalf("only %d instructions checked", n)
	}
}

// memCase is one warp memory instruction of the differential: what the
// address and data registers hold, the instruction, the active mask.
type memCase struct {
	name string
	op   isa.Op
	addr func(r *warpRig, lane int) uint32 // value of the address register
	imm  int32
	mask uint32
	prep func(r *warpRig) // optional: cache surgery before the instruction
}

func memCases() []memCase {
	const (
		l1SetStride = 16 * 128  // testConfig L1D/L1T: 16 sets of 128-byte lines
		l2SetStride = 128 * 128 // testConfig L2: 128 sets
	)
	global := func(f func(lane int) uint32) func(*warpRig, int) uint32 {
		return func(r *warpRig, lane int) uint32 { return r.buf + f(lane) }
	}
	offset := func(f func(lane int) uint32) func(*warpRig, int) uint32 {
		return func(_ *warpRig, lane int) uint32 { return f(lane) }
	}
	patterns := []struct {
		name string
		addr func(*warpRig, int) uint32
	}{
		{"uniform", global(func(int) uint32 { return 0x340 })},
		{"coalesced", global(func(l int) uint32 { return 0x1000 + 4*uint32(l) })},
		{"straddle", global(func(l int) uint32 { return 0x2000 + 128 - 40 + 4*uint32(l) })},
		{"stride2", global(func(l int) uint32 { return 0x3000 + 8*uint32(l) })},
		{"line-per-lane", global(func(l int) uint32 { return 0x4000 + 128*uint32(l) })},
		{"scattered", global(func(l int) uint32 { return (uint32(l) * 2654435761 >> 15) % (rigBufBytes / 4) * 4 })},
		{"interleaved", global(func(l int) uint32 { return 0x8000 + uint32(l%3)*128 + 4*uint32(l) })},
		{"l1-set-overflow", global(func(l int) uint32 { return 0x80 + l1SetStride*uint32(l) })},
		{"l2-set-overflow", global(func(l int) uint32 { return 0x100 + l2SetStride*uint32(l%12) + 4*uint32(l) })},
	}
	masks := []uint32{0xFFFFFFFF, 0x00FFFF00, 0xA5A5A5A5, 1 << 9}
	var cases []memCase
	for _, op := range []isa.Op{isa.OpLDG, isa.OpTLD, isa.OpSTG} {
		for i, p := range patterns {
			for j, mask := range masks {
				if j > 0 && (i+j)%2 == 0 {
					continue // partial masks on half the patterns
				}
				cases = append(cases, memCase{name: p.name, op: op, addr: p.addr, mask: mask, imm: int32(8 * (j % 2))})
			}
		}
	}
	for _, op := range []isa.Op{isa.OpLDL, isa.OpSTL} {
		cases = append(cases,
			memCase{name: "slot0", op: op, addr: offset(func(int) uint32 { return 0 }), mask: 0xFFFFFFFF},
			memCase{name: "slot-by-lane", op: op, addr: offset(func(l int) uint32 { return 4 * uint32(l%4) }), mask: 0xFFFFFFFF},
			memCase{name: "slot-by-lane", op: op, addr: offset(func(l int) uint32 { return 4 * uint32(l%3) }), imm: 4, mask: 0x0F0FF0F0},
			memCase{name: "past-the-slot", op: op, addr: offset(func(l int) uint32 { return 4 * uint32(l%5) }), mask: 0xFFFFFFFF},
			memCase{name: "misaligned-mid-mask", op: op, addr: offset(func(l int) uint32 { return uint32(l / 20 * 2) }), mask: 0xFFFFFF00},
		)
	}
	for _, op := range []isa.Op{isa.OpLDS, isa.OpSTS} {
		cases = append(cases,
			memCase{name: "uniform", op: op, addr: offset(func(int) uint32 { return 64 }), mask: 0xFFFFFFFF},
			memCase{name: "consecutive", op: op, addr: offset(func(l int) uint32 { return 4 * uint32(l) }), imm: 128, mask: 0xFFFFFFFF},
			memCase{name: "conflicting", op: op, addr: offset(func(l int) uint32 { return 128 * uint32(l%4) }), mask: 0x7FFFFFFE},
			memCase{name: "past-the-bank-mid-mask", op: op, addr: offset(func(l int) uint32 { return 32 * uint32(l) }), mask: 0xFFFFFFF0},
			memCase{name: "misaligned-mid-mask", op: op, addr: offset(func(l int) uint32 { return 4*uint32(l) + uint32(l/13) }), mask: 0xFFFFFFFF},
		)
	}
	// Faulting lanes in the middle of the mask: the first in lane order
	// decides the violation, and no line may have moved.
	for _, op := range []isa.Op{isa.OpLDG, isa.OpSTG, isa.OpTLD} {
		cases = append(cases,
			memCase{name: "misaligned-mid-mask", op: op, mask: 0xFFFFFFFF,
				addr: global(func(l int) uint32 { return 0x5000 + 128*uint32(l) + uint32(l/11) })},
			memCase{name: "unallocated-mid-mask", op: op, mask: 0xFFFFF0F0,
				addr: global(func(l int) uint32 { return 0x5000 + uint32(l/14)*rigBufBytes + 4*uint32(l) })},
			memCase{name: "null-and-misaligned", op: op, mask: 0x0000FF00,
				addr: func(r *warpRig, l int) uint32 { return uint32(l-9) * (r.buf + 2) }},
			memCase{name: "last-word-and-beyond", op: op, mask: 0xFFFFFFFF,
				addr: global(func(l int) uint32 { return rigBufBytes - 4*20 + 4*uint32(l) })},
		)
	}
	// Injected L1 lines under a coalesced load, a local store and a global
	// store: a tag flip turns the hit into a miss whose fill may evict a
	// line the same instruction made resident; a data flip arms a hook that
	// a read hit fires and a write hit kills.
	inject := func(bit func(lineBits int64) int64) func(r *warpRig) {
		return func(r *warpRig) {
			for _, c := range []*cache.Cache{r.c.l1d, r.c.l1t} {
				if c == nil {
					continue
				}
				lb := int64(c.Geometry().LineBits())
				for line := int64(0); line < int64(c.Geometry().Lines()); line++ {
					c.InjectBit(line*lb + bit(lb)) // a no-op on invalid lines
				}
			}
		}
	}
	tagFlip := inject(func(int64) int64 { return 3 })
	dataFlip := inject(func(int64) int64 { return config.TagBits + 8*44 + 5 })
	for _, op := range []isa.Op{isa.OpLDG, isa.OpTLD, isa.OpSTG, isa.OpLDL, isa.OpSTL} {
		a := global(func(l int) uint32 { return 0x1000 + 4*uint32(l) })
		if op == isa.OpLDL || op == isa.OpSTL {
			a = offset(func(l int) uint32 { return 4 * uint32(l%4) })
		}
		cases = append(cases,
			memCase{name: "tag-corrupted", op: op, addr: a, mask: 0xFFFFFFFF, prep: tagFlip},
			memCase{name: "hook-armed", op: op, addr: a, mask: 0xFFFFFFFF, prep: dataFlip},
			memCase{name: "hook-armed-then-again", op: op, addr: a, mask: 0x0000FFFF},
		)
	}
	return cases
}

// TestMemInstrMatchesLaneReference runs every memCase twice over — on a
// model with an L1D and on one without — against refExecuteMem on an
// identically prepared twin, and requires the same latency, the same
// violation (first failing lane, PC, address), and identical lane state and
// memory hierarchy after every instruction. State carries over from case to
// case, so later cases meet warm, dirty and evicted lines.
func TestMemInstrMatchesLaneReference(t *testing.T) {
	noL1D := testConfig()
	noL1D.Name, noL1D.L1D = "TestGPU-noL1D", nil
	for _, cfg := range []*config.GPU{testConfig(), noL1D} {
		t.Run(cfg.Name, func(t *testing.T) {
			got, want := newWarpRig(t, cfg), newWarpRig(t, cfg)
			violations := 0
			for round := 0; round < 2; round++ {
				for i, mc := range memCases() {
					label := fmt.Sprintf("round %d case %d %s %s mask %08x", round, i, mc.op, mc.name, mc.mask)
					in := isa.Instr{Op: mc.op, Dst: 3, SrcA: 1, SrcC: 2, Imm: mc.imm,
						Guard: isa.PredPT, PDst: isa.PredPT, PSrc: isa.PredPT, Reconv: -1}
					if i%7 == 6 {
						in.Dst, in.SrcC = isa.RegRZ, isa.RegRZ // discard the load, store zeros
					}
					for _, r := range []*warpRig{got, want} {
						r.g.cycle += 50
						r.setReg(1, func(lane int) uint32 { return mc.addr(r, lane) })
						r.setReg(2, func(lane int) uint32 { return uint32(round<<24 | i<<8 | lane) })
						if mc.prep != nil {
							mc.prep(r)
						}
					}
					wantLat := refExecuteMem(want.c, want.w, &in, mc.mask)
					wantViol := want.violation()
					gotLat := got.c.execute(got.w, &in, mc.mask)
					gotViol := got.violation()
					if !reflect.DeepEqual(gotViol, wantViol) {
						t.Fatalf("%s: violation %v, want %v", label, gotViol, wantViol)
					}
					if wantViol != nil {
						violations++
					} else if gotLat != wantLat {
						t.Fatalf("%s: latency %d, want %d", label, gotLat, wantLat)
					}
					if err := diffRigs(got, want); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
			if violations < 20 {
				t.Fatalf("only %d violating instructions seen", violations)
			}
			if ev := got.g.l2.Stats().Evictions; ev == 0 {
				t.Fatal("no L2 eviction: the set-overflow cases did not overflow")
			}
		})
	}
}
