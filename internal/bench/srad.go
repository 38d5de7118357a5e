package bench

import (
	"math"

	"gpufi/internal/sim"
)

// SRAD (Rodinia): Speckle Reducing Anisotropic Diffusion. Two kernels per
// iteration: srad*_k1 computes the diffusion coefficient and the four
// directional derivatives; srad*_k2 applies the divergence update. v1 works
// from global memory; v2 stages the image/coefficient tiles in shared
// memory (8x8 tiles with a one-cell halo), like Rodinia's srad_v2.
const (
	sradTile   = 8
	sradIters  = 2
	sradLambda = float32(0.5)
)

// sradCommon is the arithmetic shared by both variants' k1 after the four
// derivatives are known: everything from G2 to the clamped coefficient.
const sradCoefMath = `
	// G2 = (dN^2+dS^2+dW^2+dE^2)/Jc^2 ; L = (dN+dS+dW+dE)/Jc
	FMUL  R17, R11, R11
	FFMA  R17, R13, R13, R17
	FFMA  R17, R14, R14, R17
	FFMA  R17, R15, R15, R17
	FMUL  R18, R9, R9
	FDIV  R17, R17, R18
	FADD  R19, R11, R13
	FADD  R19, R19, R14
	FADD  R19, R19, R15
	FDIV  R19, R19, R9
	// num = 0.5*G2 - L*L/16 ; den = 1 + 0.25*L ; qsqr = num/den^2
	MOV   R20, 0.5f
	FMUL  R20, R20, R17
	FMUL  R21, R19, R19
	MOV   R22, -0.0625f
	FFMA  R20, R22, R21, R20
	MOV   R23, 0.25f
	MOV   R24, 1.0f
	FFMA  R23, R23, R19, R24
	FMUL  R25, R23, R23
	FDIV  R25, R20, R25
	// den2 = (qsqr - q0)/(q0*(1+q0)) ; c = clamp01(1/(1+den2))
	LDC   R26, c[32]
	FSUB  R27, R25, R26
	FADD  R28, R26, R24
	FMUL  R28, R26, R28
	FDIV  R27, R27, R28
	FADD  R29, R24, R27
	FRCP  R29, R29
	FMAX  R29, R29, RZ
	MOV   R31, 1.0f
	FMIN  R29, R29, R31
	LDC   R32, c[4]
	IADD  R32, R32, R7
	STG   [R32], R29
	EXIT
`

const sradStoreDerivs = `
	LDC   R16, c[8]
	IADD  R16, R16, R7
	STG   [R16], R11
	LDC   R16, c[12]
	IADD  R16, R16, R7
	STG   [R16], R13
	LDC   R16, c[16]
	IADD  R16, R16, R7
	STG   [R16], R14
	LDC   R16, c[20]
	IADD  R16, R16, R7
	STG   [R16], R15
`

// v1 kernel 1: derivatives from clamped global loads.
// params: c[0]=&J c[4]=&C c[8]=&dN c[12]=&dS c[16]=&dW c[20]=&dE
//
//	c[24]=W c[28]=H c[32]=q0sqr
const srad1K1Src = `
.kernel srad1_k1
	S2R   R0, %gtid
	LDC   R1, c[24]
	LDC   R2, c[28]
	IMUL  R3, R1, R2
	ISETP.GE P0, R0, R3
@P0	EXIT
	IDIV  R4, R0, R1           // y
	IREM  R5, R0, R1           // x
	LDC   R6, c[0]
	SHL   R7, R0, 2
	IADD  R8, R6, R7
	LDG   R9, [R8]             // Jc
	// dN
	IADD  R10, R4, -1
	IMAX  R10, R10, RZ
	IMAD  R10, R10, R1, R5
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R11, [R10]
	FSUB  R11, R11, R9
	// dS
	IADD  R10, R4, 1
	IADD  R12, R2, -1
	IMIN  R10, R10, R12
	IMAD  R10, R10, R1, R5
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R13, [R10]
	FSUB  R13, R13, R9
	// dW
	IADD  R10, R5, -1
	IMAX  R10, R10, RZ
	IMAD  R10, R4, R1, R10
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R14, [R10]
	FSUB  R14, R14, R9
	// dE
	IADD  R10, R5, 1
	IADD  R12, R1, -1
	IMIN  R10, R10, R12
	IMAD  R10, R4, R1, R10
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R15, [R10]
	FSUB  R15, R15, R9
` + sradStoreDerivs + sradCoefMath

// v1 kernel 2: divergence update from global loads.
// params: c[0]=&J c[4]=&C c[8]=&dN c[12]=&dS c[16]=&dW c[20]=&dE
//
//	c[24]=W c[28]=H c[32]=lambda/4
const srad1K2Src = `
.kernel srad1_k2
	S2R   R0, %gtid
	LDC   R1, c[24]
	LDC   R2, c[28]
	IMUL  R3, R1, R2
	ISETP.GE P0, R0, R3
@P0	EXIT
	IDIV  R4, R0, R1           // y
	IREM  R5, R0, R1           // x
	LDC   R6, c[4]             // C
	SHL   R7, R0, 2
	IADD  R8, R6, R7
	LDG   R9, [R8]             // cC (used for N and W directions)
	// cS = C[min(y+1,H-1), x]
	IADD  R10, R4, 1
	IADD  R11, R2, -1
	IMIN  R10, R10, R11
	IMAD  R10, R10, R1, R5
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R12, [R10]
	// cE = C[y, min(x+1,W-1)]
	IADD  R10, R5, 1
	IADD  R11, R1, -1
	IMIN  R10, R10, R11
	IMAD  R10, R4, R1, R10
	SHL   R10, R10, 2
	IADD  R10, R6, R10
	LDG   R13, [R10]
	// derivatives
	LDC   R14, c[8]
	IADD  R14, R14, R7
	LDG   R15, [R14]           // dN
	LDC   R14, c[12]
	IADD  R14, R14, R7
	LDG   R16, [R14]           // dS
	LDC   R14, c[16]
	IADD  R14, R14, R7
	LDG   R17, [R14]           // dW
	LDC   R14, c[20]
	IADD  R14, R14, R7
	LDG   R18, [R14]           // dE
	// D = cC*dN + cS*dS + cC*dW + cE*dE
	FMUL  R19, R9, R15
	FFMA  R19, R12, R16, R19
	FFMA  R19, R9, R17, R19
	FFMA  R19, R13, R18, R19
	// J += lambda4 * D
	LDC   R20, c[0]
	IADD  R21, R20, R7
	LDG   R22, [R21]
	LDC   R23, c[32]
	FFMA  R22, R23, R19, R22
	STG   [R21], R22
	EXIT
`

// v2 kernel 1: the image tile plus halo is staged in shared memory (10x10
// floats); derivatives read from the tile. 2-D launch, 8x8 blocks.
const srad2K1Src = `
.kernel srad2_k1
.smem 400
	S2R   R0, %tid.x
	S2R   R1, %tid.y
	S2R   R2, %ctaid.x
	S2R   R3, %ctaid.y
	S2R   R33, %ntid.x
	S2R   R34, %ntid.y
	IMAD  R5, R2, R33, R0      // x
	IMAD  R4, R3, R34, R1      // y
	LDC   R1, c[24]            // W (tid.y no longer needed raw)
	LDC   R2, c[28]            // H
	LDC   R6, c[0]             // J
	IMAD  R35, R4, R1, R5      // idx
	SHL   R7, R35, 2
	IADD  R8, R6, R7
	LDG   R9, [R8]             // Jc
	S2R   R36, %tid.y
	IADD  R37, R36, 1
	IMUL  R37, R37, 10
	IADD  R37, R37, R0
	IADD  R37, R37, 1
	SHL   R38, R37, 2          // smem center offset
	STS   [R38], R9
	// west halo
	ISETP.NE P0, R0, 0
@P0	BRA   s2_he
	IADD  R39, R5, -1
	IMAX  R39, R39, RZ
	IMAD  R40, R4, R1, R39
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38-4], R41
s2_he:
	IADD  R42, R33, -1
	ISETP.NE P1, R0, R42
@P1	BRA   s2_hn
	IADD  R39, R5, 1
	IADD  R43, R1, -1
	IMIN  R39, R39, R43
	IMAD  R40, R4, R1, R39
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38+4], R41
s2_hn:
	ISETP.NE P2, R36, 0
@P2	BRA   s2_hs
	IADD  R39, R4, -1
	IMAX  R39, R39, RZ
	IMAD  R40, R39, R1, R5
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38-40], R41
s2_hs:
	IADD  R42, R34, -1
	ISETP.NE P3, R36, R42
@P3	BRA   s2_calc
	IADD  R39, R4, 1
	IADD  R43, R2, -1
	IMIN  R39, R39, R43
	IMAD  R40, R39, R1, R5
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38+40], R41
s2_calc:
	BAR
	MOV   R0, R35              // free R0 for index reuse below
	MOV   R7, R0
	SHL   R7, R7, 2
	LDS   R11, [R38-40]
	FSUB  R11, R11, R9         // dN
	LDS   R13, [R38+40]
	FSUB  R13, R13, R9         // dS
	LDS   R14, [R38-4]
	FSUB  R14, R14, R9         // dW
	LDS   R15, [R38+4]
	FSUB  R15, R15, R9         // dE
` + sradStoreDerivs + sradCoefMath

// v2 kernel 2: the coefficient tile plus south/east halo is staged in
// shared memory; derivatives read from global.
const srad2K2Src = `
.kernel srad2_k2
.smem 400
	S2R   R0, %tid.x
	S2R   R1, %tid.y
	S2R   R2, %ctaid.x
	S2R   R3, %ctaid.y
	S2R   R33, %ntid.x
	S2R   R34, %ntid.y
	IMAD  R5, R2, R33, R0      // x
	IMAD  R4, R3, R34, R1      // y
	LDC   R1, c[24]            // W
	LDC   R2, c[28]            // H
	LDC   R6, c[4]             // C
	IMAD  R35, R4, R1, R5      // idx
	SHL   R7, R35, 2
	IADD  R8, R6, R7
	LDG   R9, [R8]             // cC
	S2R   R36, %tid.y
	IADD  R37, R36, 1
	IMUL  R37, R37, 10
	IADD  R37, R37, R0
	IADD  R37, R37, 1
	SHL   R38, R37, 2
	STS   [R38], R9
	// east halo
	IADD  R42, R33, -1
	ISETP.NE P1, R0, R42
@P1	BRA   s2b_hs
	IADD  R39, R5, 1
	IADD  R43, R1, -1
	IMIN  R39, R39, R43
	IMAD  R40, R4, R1, R39
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38+4], R41
s2b_hs:
	// south halo
	IADD  R42, R34, -1
	ISETP.NE P3, R36, R42
@P3	BRA   s2b_calc
	IADD  R39, R4, 1
	IADD  R43, R2, -1
	IMIN  R39, R39, R43
	IMAD  R40, R39, R1, R5
	SHL   R40, R40, 2
	IADD  R40, R6, R40
	LDG   R41, [R40]
	STS   [R38+40], R41
s2b_calc:
	BAR
	LDS   R12, [R38+40]        // cS
	LDS   R13, [R38+4]         // cE
	LDC   R14, c[8]
	IADD  R14, R14, R7
	LDG   R15, [R14]           // dN
	LDC   R14, c[12]
	IADD  R14, R14, R7
	LDG   R16, [R14]           // dS
	LDC   R14, c[16]
	IADD  R14, R14, R7
	LDG   R17, [R14]           // dW
	LDC   R14, c[20]
	IADD  R14, R14, R7
	LDG   R18, [R14]           // dE
	FMUL  R19, R9, R15
	FFMA  R19, R12, R16, R19
	FFMA  R19, R9, R17, R19
	FFMA  R19, R13, R18, R19
	LDC   R20, c[0]
	IADD  R21, R20, R7
	LDG   R22, [R21]
	LDC   R23, c[32]
	FFMA  R22, R23, R19, R22
	STG   [R21], R22
	EXIT
`

// sradQ0 computes the host-side q0sqr from the image statistics, as
// Rodinia does over its ROI (here: the whole image).
func sradQ0(img []float32) float32 {
	var sum, sum2 float64
	for _, v := range img {
		sum += float64(v)
		sum2 += float64(v) * float64(v)
	}
	n := float64(len(img))
	mean := sum / n
	variance := sum2/n - mean*mean
	return float32(variance / (mean * mean))
}

// sradReference runs the full diffusion on the CPU with the kernels'
// float32 operation order.
func sradReference(img []float32, sradDim int) []float32 {
	w, h := sradDim, sradDim
	j := append([]float32(nil), img...)
	cN := make([]float32, w*h)
	dN := make([]float32, w*h)
	dS := make([]float32, w*h)
	dW := make([]float32, w*h)
	dE := make([]float32, w*h)
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	lambda4 := sradLambda * 0.25
	for it := 0; it < sradIters; it++ {
		q0 := sradQ0(j)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				jc := j[i]
				dn := j[clamp(y-1, 0, h-1)*w+x] - jc
				ds := j[clamp(y+1, 0, h-1)*w+x] - jc
				dw := j[y*w+clamp(x-1, 0, w-1)] - jc
				de := j[y*w+clamp(x+1, 0, w-1)] - jc
				dN[i], dS[i], dW[i], dE[i] = dn, ds, dw, de
				g2 := dn * dn
				g2 = float32(float64(ds)*float64(ds) + float64(g2))
				g2 = float32(float64(dw)*float64(dw) + float64(g2))
				g2 = float32(float64(de)*float64(de) + float64(g2))
				g2 = g2 / (jc * jc)
				l := dn + ds
				l = l + dw
				l = l + de
				l = l / jc
				num := 0.5 * g2
				num = float32(float64(-0.0625)*float64(l*l) + float64(num))
				den := float32(float64(0.25)*float64(l) + 1)
				qsqr := num / (den * den)
				den2 := (qsqr - q0) / (q0 * (1 + q0))
				cv := 1 / (1 + den2)
				if cv < 0 || math.IsNaN(float64(cv)) {
					cv = 0
				}
				if cv > 1 {
					cv = 1
				}
				cN[i] = cv
			}
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				i := y*w + x
				cs := cN[clamp(y+1, 0, h-1)*w+x]
				ce := cN[y*w+clamp(x+1, 0, w-1)]
				d := cN[i] * dN[i]
				d = float32(float64(cs)*float64(dS[i]) + float64(d))
				d = float32(float64(cN[i])*float64(dW[i]) + float64(d))
				d = float32(float64(ce)*float64(dE[i]) + float64(d))
				j[i] = float32(float64(lambda4)*float64(d) + float64(j[i]))
			}
		}
	}
	return j
}

func sradInput(sradDim int) []float32 {
	r := rng(606)
	return f32Slice(sradDim*sradDim, func(int) float32 { return 1 + r.Float32() })
}

func sradApp(name string, src1, src2 string, twoD bool, scale int) *App {
	sradDim := 48 * scale
	progs := mustKernels(src1 + src2)
	img := sradInput(sradDim)
	refBytes := f32Bytes(sradReference(img, sradDim))
	k1, k2 := name+"_k1", name+"_k2"

	imgBytes := f32Bytes(img)

	run := func(g *sim.GPU) ([]byte, error) {
		n := sradDim * sradDim
		dJ, err := upload(g, imgBytes)
		if err != nil {
			return nil, err
		}
		bufs := make([]uint32, 5) // C, dN, dS, dW, dE
		for i := range bufs {
			if bufs[i], err = g.Malloc(uint32(4 * n)); err != nil {
				return nil, err
			}
		}
		var grid, block sim.Dim
		if twoD {
			grid = sim.Dim2(sradDim/sradTile, sradDim/sradTile)
			block = sim.Dim2(sradTile, sradTile)
		} else {
			block = sim.Dim1(64)
			grid = sim.Dim1((n + 63) / 64)
		}
		lambda4 := sradLambda * 0.25
		for it := 0; it < sradIters; it++ {
			jb, err := download(g, dJ, 4*n)
			if err != nil {
				return nil, err
			}
			q0 := sradQ0(bytesF32(jb))
			if _, err := g.Launch(progs[k1], grid, block,
				dJ, bufs[0], bufs[1], bufs[2], bufs[3], bufs[4],
				uint32(sradDim), uint32(sradDim), f32bitsOf(q0)); err != nil {
				return nil, err
			}
			if _, err := g.Launch(progs[k2], grid, block,
				dJ, bufs[0], bufs[1], bufs[2], bufs[3], bufs[4],
				uint32(sradDim), uint32(sradDim), f32bitsOf(lambda4)); err != nil {
				return nil, err
			}
		}
		return download(g, dJ, 4*n)
	}

	return &App{
		Name:      name2Label(name),
		Kernels:   []string{k1, k2},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-3) },
	}
}

func name2Label(name string) string {
	if name == "srad1" {
		return "SRAD1"
	}
	return "SRAD2"
}

// SRAD1 builds the global-memory SRAD variant at the default size.
func SRAD1() *App { return SRAD1Scale(1) }

// SRAD1Scale builds SRAD v1 with the image edge scaled.
func SRAD1Scale(scale int) *App { return sradApp("srad1", srad1K1Src, srad1K2Src, false, scale) }

// SRAD2 builds the shared-memory tiled SRAD variant at the default size.
func SRAD2() *App { return SRAD2Scale(1) }

// SRAD2Scale builds SRAD v2 with the image edge scaled.
func SRAD2Scale(scale int) *App { return sradApp("srad2", srad2K1Src, srad2K2Src, true, scale) }
