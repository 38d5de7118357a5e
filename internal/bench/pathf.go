package bench

import "gpufi/internal/sim"

// Pathfinder (Rodinia): row-by-row dynamic programming over a cost grid.
// Each row step loads the running result plus a one-element halo into
// shared memory and computes dst[x] = wall[t][x] + min3(src[x-1], src[x],
// src[x+1]).
const (
	pfRows  = 8
	pfBlock = 64
)

const pfSrc = `
// params: c[0]=&src c[4]=&dst c[8]=&wall_row c[12]=cols
.kernel pf_step
.smem 264                      // (64+2)*4
	S2R   R0, %tid.x
	S2R   R1, %ctaid.x
	S2R   R2, %ntid.x
	IMAD  R3, R1, R2, R0       // x
	LDC   R4, c[0]
	LDC   R5, c[4]
	LDC   R6, c[8]
	LDC   R7, c[12]
	ISETP.GE P0, R3, R7
@P0	EXIT
	SHL   R8, R3, 2
	IADD  R9, R4, R8
	LDG   R10, [R9]
	IADD  R11, R0, 1
	SHL   R11, R11, 2
	STS   [R11], R10
	// west halo
	ISETP.NE P1, R0, 0
@P1	BRA   pf_he
	IADD  R12, R3, -1
	IMAX  R12, R12, RZ
	SHL   R13, R12, 2
	IADD  R13, R4, R13
	LDG   R14, [R13]
	STS   [0], R14
pf_he:
	// east halo
	IADD  R15, R2, -1
	ISETP.NE P2, R0, R15
@P2	BRA   pf_calc
	IADD  R12, R3, 1
	IADD  R16, R7, -1
	IMIN  R12, R12, R16
	SHL   R13, R12, 2
	IADD  R13, R4, R13
	LDG   R14, [R13]
	STS   [R11+4], R14
pf_calc:
	BAR
	LDS   R17, [R11-4]
	LDS   R18, [R11]
	LDS   R19, [R11+4]
	IMIN  R17, R17, R18
	IMIN  R17, R17, R19
	IADD  R20, R6, R8
	LDG   R21, [R20]
	IADD  R21, R21, R17
	IADD  R22, R5, R8
	STG   [R22], R21
	EXIT
`

// pfReference computes the DP on the CPU.
func pfReference(wall []int32, pfCols int) []int32 {
	res := append([]int32(nil), wall[:pfCols]...)
	next := make([]int32, pfCols)
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	min3 := func(a, b, c int32) int32 {
		m := a
		if b < m {
			m = b
		}
		if c < m {
			m = c
		}
		return m
	}
	for t := 1; t < pfRows; t++ {
		for x := 0; x < pfCols; x++ {
			l := res[clamp(x-1, 0, pfCols-1)]
			r := res[clamp(x+1, 0, pfCols-1)]
			next[x] = wall[t*pfCols+x] + min3(l, res[x], r)
		}
		res, next = next, res
	}
	return res
}

// PATHF builds the Pathfinder application at the default size.
func PATHF() *App { return PATHFScale(1) }

// PATHFScale builds Pathfinder with the column count scaled.
func PATHFScale(scale int) *App {
	pfCols := 512 * scale
	progs := mustKernels(pfSrc)
	r := rng(808)
	wall := make([]int32, pfRows*pfCols)
	for i := range wall {
		wall[i] = int32(r.Intn(10))
	}
	refBytes := i32Bytes(pfReference(wall, pfCols))

	wallBytes := i32Bytes(wall)

	run := func(g *sim.GPU) ([]byte, error) {
		dWall, err := upload(g, wallBytes)
		if err != nil {
			return nil, err
		}
		dSrc, err := upload(g, wallBytes[:4*pfCols]) // row 0 seeds the result
		if err != nil {
			return nil, err
		}
		dDst, err := g.Malloc(uint32(4 * pfCols))
		if err != nil {
			return nil, err
		}
		grid := sim.Dim1(pfCols / pfBlock)
		for t := 1; t < pfRows; t++ {
			rowAddr := dWall + uint32(4*t*pfCols)
			if _, err := g.Launch(progs["pf_step"], grid, sim.Dim1(pfBlock),
				dSrc, dDst, rowAddr, uint32(pfCols)); err != nil {
				return nil, err
			}
			dSrc, dDst = dDst, dSrc
		}
		return download(g, dSrc, 4*pfCols)
	}

	return &App{
		Name:      "PATHF",
		Kernels:   []string{"pf_step"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return bytesEqual(out, refBytes) },
	}
}
