package isa

import (
	"math"
	"math/bits"
)

// WarpSize is the number of lanes that execute one instruction in lockstep.
const WarpSize = 32

// Row holds one 32-bit value per lane of a warp: a register, an operand or
// a result of a warp instruction.
type Row [WarpSize]uint32

const fullMask = 1<<WarpSize - 1

// Per-operation semantics, each defined once: EvalALU applies one to a
// single lane, EvalWarp to a whole row.
//
// Integer division by zero yields 0 and remainder by zero yields the
// dividend, so a fault-corrupted divisor degrades into wrong data (an SDC
// candidate) rather than a simulator panic — real GPUs do not trap on
// integer division by zero either.

func iadd(a, b uint32) uint32    { return uint32(int32(a) + int32(b)) }
func isub(a, b uint32) uint32    { return uint32(int32(a) - int32(b)) }
func imul(a, b uint32) uint32    { return uint32(int32(a) * int32(b)) }
func imad(a, b, c uint32) uint32 { return uint32(int32(a)*int32(b) + int32(c)) }

func idiv(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return 0
	case sa == math.MinInt32 && sb == -1: // overflow case: wrap like hardware
		return a
	}
	return uint32(sa / sb)
}

func irem(a, b uint32) uint32 {
	sa, sb := int32(a), int32(b)
	switch {
	case sb == 0:
		return a
	case sa == math.MinInt32 && sb == -1:
		return 0
	}
	return uint32(sa % sb)
}

func imin(a, b uint32) uint32 {
	if int32(a) < int32(b) {
		return a
	}
	return b
}

func imax(a, b uint32) uint32 {
	if int32(a) > int32(b) {
		return a
	}
	return b
}

func iabs(a uint32) uint32 {
	if int32(a) < 0 {
		return uint32(-int32(a))
	}
	return a
}

func and(a, b uint32) uint32 { return a & b }
func or(a, b uint32) uint32  { return a | b }
func xor(a, b uint32) uint32 { return a ^ b }
func not(a uint32) uint32    { return ^a }

func shl(a, b uint32) uint32  { return a << (b & 31) }
func shr(a, b uint32) uint32  { return a >> (b & 31) }
func shra(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }

func sel(a, b uint32, p bool) uint32 {
	if p {
		return a
	}
	return b
}

func fadd(a, b uint32) uint32 { return F32Bits(F32(a) + F32(b)) }
func fsub(a, b uint32) uint32 { return F32Bits(F32(a) - F32(b)) }
func fmul(a, b uint32) uint32 { return F32Bits(F32(a) * F32(b)) }
func fdiv(a, b uint32) uint32 { return F32Bits(F32(a) / F32(b)) }

func ffma(a, b, c uint32) uint32 {
	return F32Bits(float32(float64(F32(a))*float64(F32(b)) + float64(F32(c))))
}

func fmin(a, b uint32) uint32 {
	return F32Bits(float32(math.Min(float64(F32(a)), float64(F32(b)))))
}

func fmax(a, b uint32) uint32 {
	return F32Bits(float32(math.Max(float64(F32(a)), float64(F32(b)))))
}

func fabs(a uint32) uint32  { return F32Bits(float32(math.Abs(float64(F32(a))))) }
func fneg(a uint32) uint32  { return F32Bits(-F32(a)) }
func fsqrt(a uint32) uint32 { return F32Bits(float32(math.Sqrt(float64(F32(a))))) }
func frcp(a uint32) uint32  { return F32Bits(1 / F32(a)) }
func fexp(a uint32) uint32  { return F32Bits(float32(math.Exp(float64(F32(a))))) }
func flog(a uint32) uint32  { return F32Bits(float32(math.Log(float64(F32(a))))) }
func i2f(a uint32) uint32   { return F32Bits(float32(int32(a))) }

// f2i truncates toward zero with saturation, matching cvt.rzi.s32.f32.
func f2i(a uint32) uint32 {
	f := F32(a)
	switch {
	case math.IsNaN(float64(f)):
		return 0
	case f >= math.MaxInt32:
		return math.MaxInt32
	case f <= math.MinInt32:
		return 1 << 31
	}
	return uint32(int32(f))
}

// The three base relations of each *SETP operand type. Every Cond reduces
// to one of them (see Cond.base).

func eqI(a, b uint32) bool { return a == b }
func ltS(a, b uint32) bool { return int32(a) < int32(b) }
func leS(a, b uint32) bool { return int32(a) <= int32(b) }
func ltU(a, b uint32) bool { return a < b }
func leU(a, b uint32) bool { return a <= b }
func eqF(a, b uint32) bool { return F32(a) == F32(b) }
func ltF(a, b uint32) bool { return F32(a) < F32(b) }
func leF(a, b uint32) bool { return F32(a) <= F32(b) }

// base reduces a condition to EQ, LT or LE over possibly swapped operands
// with a possibly negated result: NE is !EQ, GT and GE are LT and LE with
// the operands exchanged. That holds for unordered floats too — NE is the
// only condition a NaN operand satisfies. An undefined condition reduces to
// itself, which no relation matches, so it compares false.
func (c Cond) base() (rel Cond, swap, neg bool) {
	switch c {
	case CondNE:
		return CondEQ, false, true
	case CondGT:
		return CondLT, true, false
	case CondGE:
		return CondLE, true, false
	}
	return c, false, false
}

// evalCond computes one lane of ISETP/USETP/FSETP.
func evalCond(op Op, cond Cond, a, b uint32) bool {
	rel, swap, neg := cond.base()
	if swap {
		a, b = b, a
	}
	r := false
	switch {
	case op == OpISETP && rel == CondEQ, op == OpUSETP && rel == CondEQ:
		r = eqI(a, b)
	case op == OpISETP && rel == CondLT:
		r = ltS(a, b)
	case op == OpISETP && rel == CondLE:
		r = leS(a, b)
	case op == OpUSETP && rel == CondLT:
		r = ltU(a, b)
	case op == OpUSETP && rel == CondLE:
		r = leU(a, b)
	case op == OpFSETP && rel == CondEQ:
		r = eqF(a, b)
	case op == OpFSETP && rel == CondLT:
		r = ltF(a, b)
	case op == OpFSETP && rel == CondLE:
		r = leF(a, b)
	}
	return r != neg
}

// evalCondWarp computes ISETP/USETP/FSETP for all 32 lanes: one loop over
// the base relation, the condition decoded once.
func evalCondWarp(op Op, cond Cond, a, b *Row) uint32 {
	rel, swap, neg := cond.base()
	if swap {
		a, b = b, a
	}
	var p uint32
	switch {
	case op == OpISETP && rel == CondEQ, op == OpUSETP && rel == CondEQ:
		for l := range a {
			if eqI(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpISETP && rel == CondLT:
		for l := range a {
			if ltS(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpISETP && rel == CondLE:
		for l := range a {
			if leS(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpUSETP && rel == CondLT:
		for l := range a {
			if ltU(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpUSETP && rel == CondLE:
		for l := range a {
			if leU(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpFSETP && rel == CondEQ:
		for l := range a {
			if eqF(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpFSETP && rel == CondLT:
		for l := range a {
			if ltF(a[l], b[l]) {
				p |= 1 << l
			}
		}
	case op == OpFSETP && rel == CondLE:
		for l := range a {
			if leF(a[l], b[l]) {
				p |= 1 << l
			}
		}
	default:
		return 0 // undefined condition: false in every lane, NE included
	}
	if neg {
		p = ^p
	}
	return p
}

// EvalALU computes the result of a non-memory, non-control operation given
// its source operand bits. For *SETP operations the result is returned in
// pred; for register-writing operations in val. selPred supplies the
// predicate operand value for SEL. ok is false if op is not an ALU/SFU
// operation evaluable here.
func EvalALU(op Op, cond Cond, a, b, c uint32, selPred bool) (val uint32, pred, ok bool) {
	switch op {
	case OpMOV:
		return b, false, true
	case OpIADD:
		return iadd(a, b), false, true
	case OpISUB:
		return isub(a, b), false, true
	case OpIMUL:
		return imul(a, b), false, true
	case OpIMAD:
		return imad(a, b, c), false, true
	case OpIDIV:
		return idiv(a, b), false, true
	case OpIREM:
		return irem(a, b), false, true
	case OpIMIN:
		return imin(a, b), false, true
	case OpIMAX:
		return imax(a, b), false, true
	case OpIABS:
		return iabs(a), false, true
	case OpSHL:
		return shl(a, b), false, true
	case OpSHR:
		return shr(a, b), false, true
	case OpSHRA:
		return shra(a, b), false, true
	case OpAND:
		return and(a, b), false, true
	case OpOR:
		return or(a, b), false, true
	case OpXOR:
		return xor(a, b), false, true
	case OpNOT:
		return not(a), false, true
	case OpISETP, OpUSETP, OpFSETP:
		return 0, evalCond(op, cond, a, b), true
	case OpSEL:
		return sel(a, b, selPred), false, true
	case OpFADD:
		return fadd(a, b), false, true
	case OpFSUB:
		return fsub(a, b), false, true
	case OpFMUL:
		return fmul(a, b), false, true
	case OpFFMA:
		return ffma(a, b, c), false, true
	case OpFDIV:
		return fdiv(a, b), false, true
	case OpFMIN:
		return fmin(a, b), false, true
	case OpFMAX:
		return fmax(a, b), false, true
	case OpFABS:
		return fabs(a), false, true
	case OpFNEG:
		return fneg(a), false, true
	case OpFSQRT:
		return fsqrt(a), false, true
	case OpFRCP:
		return frcp(a), false, true
	case OpFEXP:
		return fexp(a), false, true
	case OpFLOG:
		return flog(a), false, true
	case OpF2I:
		return f2i(a), false, true
	case OpI2F:
		return i2f(a), false, true
	}
	return 0, false, false
}

// EvalWarp is EvalALU for the lanes of mask at once: lane l takes its
// operands from a[l], b[l], c[l] and bit l of sel (the SEL predicate). A
// register-writing operation stores the results of the masked lanes in dst
// and leaves its other lanes alone; a *SETP returns the masked lanes'
// outcomes in pred and does not touch dst. dst may alias an operand row.
//
// The opcode is decoded once per call, not once per lane. Operations are
// pure and cannot trap, so a partial mask evaluates all 32 lanes into a
// scratch row and merges the active ones.
func EvalWarp(op Op, cond Cond, mask uint32, dst, a, b, c *Row, sel uint32) (pred uint32, ok bool) {
	if mask == fullMask || op.WritesPred() {
		pred, ok = evalRows(op, cond, dst, a, b, c, sel)
		return pred & mask, ok
	}
	var tmp Row
	if _, ok = evalRows(op, cond, &tmp, a, b, c, sel); ok {
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & (WarpSize - 1)
			dst[l] = tmp[l]
		}
	}
	return 0, ok
}

// evalRows evaluates op for all 32 lanes.
func evalRows(op Op, cond Cond, dst, a, b, c *Row, selMask uint32) (pred uint32, ok bool) {
	switch op {
	case OpMOV:
		*dst = *b
	case OpIADD:
		for l := range dst {
			dst[l] = iadd(a[l], b[l])
		}
	case OpISUB:
		for l := range dst {
			dst[l] = isub(a[l], b[l])
		}
	case OpIMUL:
		for l := range dst {
			dst[l] = imul(a[l], b[l])
		}
	case OpIMAD:
		for l := range dst {
			dst[l] = imad(a[l], b[l], c[l])
		}
	case OpIDIV:
		for l := range dst {
			dst[l] = idiv(a[l], b[l])
		}
	case OpIREM:
		for l := range dst {
			dst[l] = irem(a[l], b[l])
		}
	case OpIMIN:
		for l := range dst {
			dst[l] = imin(a[l], b[l])
		}
	case OpIMAX:
		for l := range dst {
			dst[l] = imax(a[l], b[l])
		}
	case OpIABS:
		for l := range dst {
			dst[l] = iabs(a[l])
		}
	case OpSHL:
		for l := range dst {
			dst[l] = shl(a[l], b[l])
		}
	case OpSHR:
		for l := range dst {
			dst[l] = shr(a[l], b[l])
		}
	case OpSHRA:
		for l := range dst {
			dst[l] = shra(a[l], b[l])
		}
	case OpAND:
		for l := range dst {
			dst[l] = and(a[l], b[l])
		}
	case OpOR:
		for l := range dst {
			dst[l] = or(a[l], b[l])
		}
	case OpXOR:
		for l := range dst {
			dst[l] = xor(a[l], b[l])
		}
	case OpNOT:
		for l := range dst {
			dst[l] = not(a[l])
		}
	case OpISETP, OpUSETP, OpFSETP:
		return evalCondWarp(op, cond, a, b), true
	case OpSEL:
		for l := range dst {
			dst[l] = sel(a[l], b[l], selMask>>l&1 != 0)
		}
	case OpFADD:
		for l := range dst {
			dst[l] = fadd(a[l], b[l])
		}
	case OpFSUB:
		for l := range dst {
			dst[l] = fsub(a[l], b[l])
		}
	case OpFMUL:
		for l := range dst {
			dst[l] = fmul(a[l], b[l])
		}
	case OpFFMA:
		for l := range dst {
			dst[l] = ffma(a[l], b[l], c[l])
		}
	case OpFDIV:
		for l := range dst {
			dst[l] = fdiv(a[l], b[l])
		}
	case OpFMIN:
		for l := range dst {
			dst[l] = fmin(a[l], b[l])
		}
	case OpFMAX:
		for l := range dst {
			dst[l] = fmax(a[l], b[l])
		}
	case OpFABS:
		for l := range dst {
			dst[l] = fabs(a[l])
		}
	case OpFNEG:
		for l := range dst {
			dst[l] = fneg(a[l])
		}
	case OpFSQRT:
		for l := range dst {
			dst[l] = fsqrt(a[l])
		}
	case OpFRCP:
		for l := range dst {
			dst[l] = frcp(a[l])
		}
	case OpFEXP:
		for l := range dst {
			dst[l] = fexp(a[l])
		}
	case OpFLOG:
		for l := range dst {
			dst[l] = flog(a[l])
		}
	case OpF2I:
		for l := range dst {
			dst[l] = f2i(a[l])
		}
	case OpI2F:
		for l := range dst {
			dst[l] = i2f(a[l])
		}
	default:
		return 0, false
	}
	return 0, true
}
