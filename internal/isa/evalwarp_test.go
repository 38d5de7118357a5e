package isa

import (
	"encoding/binary"
	"math"
	"testing"
)

// aluOps lists every operation EvalALU evaluates.
func aluOps() []Op {
	var ops []Op
	for op := Op(0); op < opCount; op++ {
		if _, _, ok := EvalALU(op, CondEQ, 0, 0, 0, false); ok {
			ops = append(ops, op)
		}
	}
	return ops
}

// edgeOperands are the values arithmetic misbehaves around: zero, ±1, the
// integer extremes, shift counts at and past the register width, and the
// float32 specials (±0, ±Inf, quiet and signalling NaNs, the smallest and
// largest denormals, the extremes, and the int32 conversion boundaries).
var edgeOperands = []uint32{
	0, 1, 2, 3, 31, 32, 33, 63, 64, 0xFFFFFFFF, 0xFFFFFFFE,
	math.MaxInt32, 1 << 31, 1<<31 + 1, 0x0000FFFF, 0xFFFF0000, 0x55555555,
	0x80000000,                                     // -0.0
	0x3F800000, 0xBF800000, 0x40000000, 0x3F000000, // ±1, 2, 0.5
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0xFFC00000, 0x7F800001, 0x7FFFFFFF, // NaNs
	0x00000001, 0x80000001, 0x007FFFFF, 0x00800000, // denormals, min normal
	0x7F7FFFFF, 0xFF7FFFFF, // ±max
	0x4F000000, 0xCF000000, 0x4EFFFFFF, 0xCF000001, // ±2^31 and neighbours
	0x42B20000, 0xC2B20000, 0x42B17218, // exp overflow/underflow boundary
}

// checkWarpAgainstScalar runs EvalWarp on the rows and compares every lane
// with EvalALU: active lanes must hold the scalar result, inactive lanes
// their previous contents, and a *SETP must report exactly the active
// lanes' outcomes and leave dst alone.
func checkWarpAgainstScalar(t *testing.T, op Op, cond Cond, mask uint32, a, b, c *Row, sel uint32) {
	t.Helper()
	var dst, before Row
	for l := range dst {
		dst[l] = 0xD0D0D0D0 ^ uint32(l)
	}
	before = dst
	pred, ok := EvalWarp(op, cond, mask, &dst, a, b, c, sel)
	if _, _, sok := EvalALU(op, cond, 0, 0, 0, false); ok != sok {
		t.Fatalf("%s: EvalWarp ok=%v, EvalALU ok=%v", op, ok, sok)
	}
	if !ok {
		if dst != before || pred != 0 {
			t.Fatalf("%s: not evaluable, yet dst or pred changed", op)
		}
		return
	}
	for l := 0; l < WarpSize; l++ {
		active := mask>>l&1 != 0
		val, p, _ := EvalALU(op, cond, a[l], b[l], c[l], sel>>l&1 != 0)
		want := before[l]
		if active && !op.WritesPred() {
			want = val
		}
		if dst[l] != want {
			t.Fatalf("%s.%s mask %08x lane %d (a=%#x b=%#x c=%#x sel=%v): dst %#x, want %#x",
				op, cond, mask, l, a[l], b[l], c[l], sel>>l&1 != 0, dst[l], want)
		}
		if got := pred>>l&1 != 0; got != (active && p) {
			t.Fatalf("%s.%s mask %08x lane %d (a=%#x b=%#x): pred %v, want %v",
				op, cond, mask, l, a[l], b[l], got, active && p)
		}
	}
}

// TestEvalWarpMatchesScalar holds the warp evaluator to EvalALU lane by
// lane: every evaluable opcode, every condition (one undefined), every pair
// of edge operands, under full, partial, single-lane and empty masks.
func TestEvalWarpMatchesScalar(t *testing.T) {
	masks := []uint32{0xFFFFFFFF, 0, 1, 1 << 31, 0x0000FFFF, 0xAAAAAAAA, 0x7FFFFFFF, 0x80000001, 0x00F00F00}
	n := len(edgeOperands)
	for _, op := range aluOps() {
		conds := []Cond{CondEQ}
		if op.WritesPred() {
			conds = []Cond{CondEQ, CondNE, CondLT, CondLE, CondGT, CondGE, condCount}
		}
		for _, cond := range conds {
			// Lane l of round r pairs operand r+l with operand r*k+l, so
			// the rounds cover every (a, b) pair; c and sel ride along.
			for r := 0; r < n; r++ {
				var a, b, c Row
				for l := range a {
					a[l] = edgeOperands[(r+l)%n]
					b[l] = edgeOperands[(r*(l+1)+l)%n]
					c[l] = edgeOperands[(r+2*l+1)%n]
				}
				sel := 0x9E3779B9 * uint32(r+1)
				for _, mask := range masks {
					checkWarpAgainstScalar(t, op, cond, mask, &a, &b, &c, sel)
				}
			}
		}
	}
	// Operations outside the ALU/SFU set are not evaluable either way.
	var z Row
	for _, op := range []Op{OpNOP, OpS2R, OpLDG, OpSTG, OpLDS, OpSTS, OpLDL, OpSTL, OpLDC, OpTLD, OpBRA, OpBAR, OpEXIT, opCount, 255} {
		checkWarpAgainstScalar(t, op, CondEQ, 0xFFFFFFFF, &z, &z, &z, 0)
		checkWarpAgainstScalar(t, op, CondEQ, 0x0F0F0F0F, &z, &z, &z, 0)
	}
}

// TestEvalWarpAllPairs closes the gap the lane pairing above could leave:
// every ordered pair of edge operands, for every two-operand opcode, under
// a full and a partial mask.
func TestEvalWarpAllPairs(t *testing.T) {
	n := len(edgeOperands)
	for _, op := range aluOps() {
		conds := []Cond{CondEQ}
		if op.WritesPred() {
			conds = []Cond{CondEQ, CondNE, CondLT, CondLE, CondGT, CondGE}
		}
		for _, cond := range conds {
			for i := 0; i < n; i++ {
				for j0 := 0; j0 < n; j0 += WarpSize {
					var a, b, c Row
					for l := range a {
						a[l] = edgeOperands[i]
						b[l] = edgeOperands[(j0+l)%n]
						c[l] = edgeOperands[(i+j0+l)%n]
					}
					checkWarpAgainstScalar(t, op, cond, 0xFFFFFFFF, &a, &b, &c, 0x0F0F0F0F)
					checkWarpAgainstScalar(t, op, cond, 0x5A5A5A5A, &a, &b, &c, 0xF0F0F0F0)
				}
			}
		}
	}
}

// TestEvalWarpAliasing: the destination row may be any of the operand rows
// (IADD R1, R1, R1), for full and partial masks.
func TestEvalWarpAliasing(t *testing.T) {
	for _, op := range aluOps() {
		if op.WritesPred() {
			continue
		}
		for _, mask := range []uint32{0xFFFFFFFF, 0x00FFFF00} {
			for alias := 0; alias < 3; alias++ {
				var rows [3]Row
				for l := 0; l < WarpSize; l++ {
					rows[0][l] = edgeOperands[(l+5)%len(edgeOperands)]
					rows[1][l] = edgeOperands[(3*l+1)%len(edgeOperands)]
					rows[2][l] = edgeOperands[(7*l+2)%len(edgeOperands)]
				}
				orig := rows
				if _, ok := EvalWarp(op, CondEQ, mask, &rows[alias], &rows[0], &rows[1], &rows[2], 0x33333333); !ok {
					t.Fatalf("%s not evaluable", op)
				}
				for l := 0; l < WarpSize; l++ {
					want := orig[alias][l]
					if mask>>l&1 != 0 {
						want, _, _ = EvalALU(op, CondEQ, orig[0][l], orig[1][l], orig[2][l], 0x33333333>>l&1 != 0)
					}
					if rows[alias][l] != want {
						t.Fatalf("%s dst aliasing operand %d, mask %08x lane %d: %#x, want %#x",
							op, alias, mask, l, rows[alias][l], want)
					}
				}
			}
		}
	}
}

// FuzzEvalWarp feeds arbitrary opcodes, conditions, masks and operand rows
// to both evaluators. The input is: op, cond, 4 bytes mask, 4 bytes sel,
// then operand words, recycled when they run short.
func FuzzEvalWarp(f *testing.F) {
	f.Add([]byte{byte(OpIADD), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{byte(OpFSETP), byte(CondGE), 0x0F, 0xF0, 0x55, 0xAA, 0, 0, 0, 0, 0, 0, 0xC0, 0x7F, 0, 0, 0x80, 0x7F})
	f.Add([]byte{byte(OpIDIV), 0, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add([]byte{byte(OpSEL), 9, 1, 0, 0, 0x80, 0xF0, 0xF0, 0xF0, 0xF0, 9, 9, 9, 9})
	f.Add([]byte{byte(OpFEXP), 0, 0x10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xB2, 0x42})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 14 {
			return
		}
		op, cond := Op(in[0]), Cond(in[1])
		mask := binary.LittleEndian.Uint32(in[2:])
		sel := binary.LittleEndian.Uint32(in[6:])
		words := in[10:]
		word := func(i int) uint32 {
			var w [4]byte
			for k := range w {
				w[k] = words[(4*i+k)%len(words)]
			}
			return binary.LittleEndian.Uint32(w[:])
		}
		var a, b, c Row
		for l := 0; l < WarpSize; l++ {
			a[l], b[l], c[l] = word(3*l), word(3*l+1), word(3*l+2)
		}
		checkWarpAgainstScalar(t, op, cond, mask, &a, &b, &c, sel)
	})
}
