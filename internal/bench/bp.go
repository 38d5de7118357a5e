package bench

import (
	"math"

	"gpufi/internal/sim"
)

// Backpropagation (Rodinia): one hidden-layer network training step. The
// forward kernel computes each hidden unit's weighted sum with a
// shared-memory reduction and applies the sigmoid on-device (exercising
// the SFU path); the adjust kernel applies the weight delta. The host
// computes output error, like Rodinia's CPU portion.
const (
	bpHidden = 16
	bpIters  = 2
	bpEta    = float32(0.3)
	bpBlock  = 64
)

const bpSrc = `
// params: c[0]=&w (hidden x in) c[4]=&input c[8]=&hidden_out c[12]=in_count
.kernel bp_forward
.smem 256                      // bpBlock * 4
	S2R   R0, %tid.x
	S2R   R1, %ctaid.x         // hidden unit h
	LDC   R2, c[0]
	LDC   R3, c[4]
	LDC   R4, c[8]
	LDC   R5, c[12]            // in
	IMUL  R6, R1, R5           // base of w[h][*]
	MOV   R7, 0f
	S2R   R8, %tid.x
	S2R   R9, %ntid.x
bp_loop:
	ISETP.GE P0, R8, R5
@P0	BRA   bp_red
	IADD  R10, R6, R8
	SHL   R10, R10, 2
	IADD  R10, R2, R10
	LDG   R11, [R10]           // w[h][i]
	SHL   R12, R8, 2
	IADD  R12, R3, R12
	LDG   R13, [R12]           // input[i]
	FFMA  R7, R11, R13, R7
	IADD  R8, R8, R9
	BRA   bp_loop
bp_red:
	SHL   R14, R0, 2
	STS   [R14], R7
	BAR
	MOV   R15, 32
bp_fold:
	ISETP.LT P1, R15, 1
@P1	BRA   bp_fin
	ISETP.GE P2, R0, R15
@P2	BRA   bp_skip
	IADD  R16, R0, R15
	SHL   R16, R16, 2
	LDS   R17, [R16]
	LDS   R18, [R14]
	FADD  R18, R18, R17
	STS   [R14], R18
bp_skip:
	BAR
	SHR   R15, R15, 1
	BRA   bp_fold
bp_fin:
	ISETP.NE P3, R0, 0
@P3	EXIT
	LDS   R19, [0]
	// sigmoid: 1 / (1 + exp(-sum))
	FNEG  R20, R19
	FEXP  R20, R20
	MOV   R21, 1.0f
	FADD  R20, R20, R21
	FRCP  R20, R20
	SHL   R22, R1, 2
	IADD  R22, R4, R22
	STG   [R22], R20
	EXIT

// params: c[0]=&w c[4]=&input c[8]=&delta c[12]=in c[16]=hidden c[20]=eta
.kernel bp_adjust
	S2R   R0, %gtid
	LDC   R1, c[12]            // in
	LDC   R2, c[16]            // hidden
	IMUL  R3, R1, R2
	ISETP.GE P0, R0, R3
@P0	EXIT
	IDIV  R4, R0, R1           // h
	IREM  R5, R0, R1           // i
	LDC   R6, c[0]
	LDC   R7, c[4]
	LDC   R8, c[8]
	SHL   R9, R4, 2
	IADD  R9, R8, R9
	LDG   R10, [R9]            // delta[h]
	SHL   R11, R5, 2
	IADD  R11, R7, R11
	LDG   R12, [R11]           // input[i]
	SHL   R13, R0, 2
	IADD  R13, R6, R13
	LDG   R14, [R13]           // w[h][i]
	FMUL  R15, R10, R12
	LDC   R16, c[20]           // eta
	FFMA  R14, R16, R15, R14
	STG   [R13], R14
	EXIT
`

// bpSigmoid matches the kernel's float32 sigmoid.
func bpSigmoid(x float32) float32 {
	e := float32(math.Exp(float64(-x)))
	return 1 / (e + 1)
}

// bpForwardCPU mirrors bp_forward: strided accumulation then tree
// reduction in float32 (FFMA with float64 intermediates).
func bpForwardCPU(w, input []float32) []float32 {
	bpIn := len(input)
	out := make([]float32, bpHidden)
	for h := 0; h < bpHidden; h++ {
		var partial [bpBlock]float32
		for lane := 0; lane < bpBlock; lane++ {
			acc := float32(0)
			for i := lane; i < bpIn; i += bpBlock {
				acc = float32(float64(w[h*bpIn+i])*float64(input[i]) + float64(acc))
			}
			partial[lane] = acc
		}
		for s := 32; s >= 1; s >>= 1 {
			for lane := 0; lane < s && lane+s < bpBlock; lane++ {
				partial[lane] += partial[lane+s]
			}
		}
		out[h] = bpSigmoid(partial[0])
	}
	return out
}

// bpDeltas computes the host-side error terms for each hidden unit.
func bpDeltas(hidden, target []float32) []float32 {
	d := make([]float32, bpHidden)
	for h := 0; h < bpHidden; h++ {
		d[h] = (target[h] - hidden[h]) * hidden[h] * (1 - hidden[h])
	}
	return d
}

// BP builds the Backpropagation application at the default size. The
// output is the trained weight matrix.
func BP() *App { return BPScale(1) }

// BPScale builds Backpropagation with the input-layer width scaled.
func BPScale(scale int) *App {
	bpIn := 64 * scale
	progs := mustKernels(bpSrc)
	r := rng(1111)
	w0 := f32Slice(bpHidden*bpIn, func(int) float32 { return r.Float32() - 0.5 })
	input := f32Slice(bpIn, func(int) float32 { return r.Float32() })
	target := f32Slice(bpHidden, func(int) float32 { return r.Float32() })

	// CPU reference.
	wRef := append([]float32(nil), w0...)
	for it := 0; it < bpIters; it++ {
		hid := bpForwardCPU(wRef, input)
		delta := bpDeltas(hid, target)
		for h := 0; h < bpHidden; h++ {
			for i := 0; i < bpIn; i++ {
				t := delta[h] * input[i]
				wRef[h*bpIn+i] = float32(float64(bpEta)*float64(t) + float64(wRef[h*bpIn+i]))
			}
		}
	}
	refBytes := f32Bytes(wRef)

	w0Bytes, inputBytes := f32Bytes(w0), f32Bytes(input)

	run := func(g *sim.GPU) ([]byte, error) {
		dW, err := upload(g, w0Bytes)
		if err != nil {
			return nil, err
		}
		dIn, err := upload(g, inputBytes)
		if err != nil {
			return nil, err
		}
		dHid, err := g.Malloc(4 * bpHidden)
		if err != nil {
			return nil, err
		}
		dDelta, err := g.Malloc(4 * bpHidden)
		if err != nil {
			return nil, err
		}
		for it := 0; it < bpIters; it++ {
			if _, err := g.Launch(progs["bp_forward"], sim.Dim1(bpHidden), sim.Dim1(bpBlock),
				dW, dIn, dHid, uint32(bpIn)); err != nil {
				return nil, err
			}
			hb, err := download(g, dHid, 4*bpHidden)
			if err != nil {
				return nil, err
			}
			delta := bpDeltas(bytesF32(hb), target)
			if err := g.MemcpyHtoD(dDelta, f32Bytes(delta)); err != nil {
				return nil, err
			}
			cells := bpHidden * bpIn
			grid := sim.Dim1((cells + bpBlock - 1) / bpBlock)
			if _, err := g.Launch(progs["bp_adjust"], grid, sim.Dim1(bpBlock),
				dW, dIn, dDelta, uint32(bpIn), uint32(bpHidden), f32bitsOf(bpEta)); err != nil {
				return nil, err
			}
		}
		return download(g, dW, 4*bpHidden*bpIn)
	}

	return &App{
		Name:      "BP",
		Kernels:   []string{"bp_forward", "bp_adjust"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-3) },
	}
}
