package bench

import "gpufi/internal/sim"

// Hot Spot (Rodinia): iterative 5-point thermal stencil. Each 8x8 thread
// block stages its tile plus a one-cell halo in shared memory (10x10
// floats), reads the power grid from global memory, and writes the updated
// temperature. Two time steps with buffer swapping, as the Rodinia pyramid
// kernel does per launch.
const (
	hsTile  = 8
	hsIters = 2
	hsCoef  = float32(0.05)
)

const hsSrc = `
// params: c[0]=&tin c[4]=&power c[8]=&tout c[12]=W c[16]=H c[20]=coef bits
.kernel hs_step
.smem 400                      // (8+2)*(8+2)*4 halo tile
	S2R   R0, %tid.x
	S2R   R1, %tid.y
	S2R   R2, %ctaid.x
	S2R   R3, %ctaid.y
	S2R   R4, %ntid.x
	S2R   R5, %ntid.y
	IMAD  R6, R2, R4, R0       // x
	IMAD  R7, R3, R5, R1       // y
	LDC   R8, c[12]            // W
	LDC   R9, c[16]            // H
	LDC   R10, c[0]            // tin
	// own cell -> smem (tid.y+1, tid.x+1) of a 10-wide tile
	IMAD  R11, R7, R8, R6      // idx = y*W + x
	SHL   R12, R11, 2
	IADD  R13, R10, R12
	LDG   R14, [R13]           // t center
	IADD  R15, R1, 1
	IMUL  R15, R15, 10
	IADD  R15, R15, R0
	IADD  R15, R15, 1
	SHL   R16, R15, 2          // smem byte offset of center
	STS   [R16], R14
	// halo west (tid.x == 0): global (y, max(x-1,0))
	ISETP.NE P0, R0, 0
@P0	BRA   hs_he
	IADD  R17, R6, -1
	IMAX  R17, R17, RZ
	IMAD  R18, R7, R8, R17
	SHL   R18, R18, 2
	IADD  R18, R10, R18
	LDG   R19, [R18]
	STS   [R16-4], R19
hs_he:
	// halo east (tid.x == ntid.x-1): global (y, min(x+1,W-1))
	IADD  R20, R4, -1
	ISETP.NE P1, R0, R20
@P1	BRA   hs_hn
	IADD  R17, R6, 1
	IADD  R21, R8, -1
	IMIN  R17, R17, R21
	IMAD  R18, R7, R8, R17
	SHL   R18, R18, 2
	IADD  R18, R10, R18
	LDG   R19, [R18]
	STS   [R16+4], R19
hs_hn:
	// halo north (tid.y == 0): global (max(y-1,0), x)
	ISETP.NE P2, R1, 0
@P2	BRA   hs_hs
	IADD  R17, R7, -1
	IMAX  R17, R17, RZ
	IMAD  R18, R17, R8, R6
	SHL   R18, R18, 2
	IADD  R18, R10, R18
	LDG   R19, [R18]
	STS   [R16-40], R19
hs_hs:
	// halo south (tid.y == ntid.y-1): global (min(y+1,H-1), x)
	IADD  R20, R5, -1
	ISETP.NE P3, R1, R20
@P3	BRA   hs_calc
	IADD  R17, R7, 1
	IADD  R21, R9, -1
	IMIN  R17, R17, R21
	IMAD  R18, R17, R8, R6
	SHL   R18, R18, 2
	IADD  R18, R10, R18
	LDG   R19, [R18]
	STS   [R16+40], R19
hs_calc:
	BAR
	LDS   R22, [R16-4]         // west
	LDS   R23, [R16+4]         // east
	LDS   R24, [R16-40]        // north
	LDS   R25, [R16+40]        // south
	FADD  R26, R22, R23
	FADD  R26, R26, R24
	FADD  R26, R26, R25        // sum of neighbors
	MOV   R27, -4.0f
	FFMA  R26, R27, R14, R26   // sum - 4*t
	LDC   R28, c[4]            // power
	IADD  R29, R28, R12
	LDG   R30, [R29]           // p
	FADD  R26, R26, R30        // sum - 4t + p
	LDC   R31, c[20]           // coef
	FFMA  R32, R31, R26, R14   // t' = t + coef*(...)
	LDC   R33, c[8]            // tout
	IADD  R34, R33, R12
	STG   [R34], R32
	EXIT
`

// hsReference runs the stencil on the CPU with the same float32 operation
// order as the kernel, on a hsDim x hsDim grid.
func hsReference(t, p []float32, hsDim int) []float32 {
	cur := append([]float32(nil), t...)
	next := make([]float32, len(t))
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	for it := 0; it < hsIters; it++ {
		for y := 0; y < hsDim; y++ {
			for x := 0; x < hsDim; x++ {
				c := cur[y*hsDim+x]
				w := cur[y*hsDim+clamp(x-1, 0, hsDim-1)]
				e := cur[y*hsDim+clamp(x+1, 0, hsDim-1)]
				n := cur[clamp(y-1, 0, hsDim-1)*hsDim+x]
				s := cur[clamp(y+1, 0, hsDim-1)*hsDim+x]
				sum := w + e
				sum = sum + n
				sum = sum + s
				sum = float32(float64(-4.0)*float64(c) + float64(sum))
				sum = sum + p[y*hsDim+x]
				next[y*hsDim+x] = float32(float64(hsCoef)*float64(sum) + float64(c))
			}
		}
		cur, next = next, cur
	}
	return cur
}

// HS builds the Hot Spot application at the default size.
func HS() *App { return HSScale(1) }

// HSScale builds Hot Spot with the grid edge scaled.
func HSScale(scale int) *App {
	hsDim := 64 * scale
	progs := mustKernels(hsSrc)
	r := rng(404)
	n := hsDim * hsDim
	temp := f32Slice(n, func(int) float32 { return 320 + r.Float32()*20 })
	power := f32Slice(n, func(int) float32 { return r.Float32() * 0.5 })
	refBytes := f32Bytes(hsReference(temp, power, hsDim))

	tempBytes, powerBytes := f32Bytes(temp), f32Bytes(power)

	run := func(g *sim.GPU) ([]byte, error) {
		dA, err := upload(g, tempBytes)
		if err != nil {
			return nil, err
		}
		dP, err := upload(g, powerBytes)
		if err != nil {
			return nil, err
		}
		dB, err := g.Malloc(uint32(4 * n))
		if err != nil {
			return nil, err
		}
		grid := sim.Dim2(hsDim/hsTile, hsDim/hsTile)
		block := sim.Dim2(hsTile, hsTile)
		src, dst := dA, dB
		for it := 0; it < hsIters; it++ {
			if _, err := g.Launch(progs["hs_step"], grid, block,
				src, dP, dst, uint32(hsDim), uint32(hsDim), hsCoefBits()); err != nil {
				return nil, err
			}
			src, dst = dst, src
		}
		return download(g, src, 4*n)
	}

	return &App{
		Name:      "HS",
		Kernels:   []string{"hs_step"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-4) },
	}
}

func hsCoefBits() uint32 {
	return f32bitsOf(hsCoef)
}
