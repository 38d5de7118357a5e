package bench

import "gpufi/internal/sim"

// Needleman-Wunsch (Rodinia): global sequence alignment scoring. The score
// matrix fills along anti-diagonals; one kernel launch per diagonal, each
// thread computing one cell — the wavefront structure of Rodinia's nw.
const (
	nwPenalty = 10
	nwBlock   = 32
)

const nwSrc = `
// params: c[0]=&score c[4]=&ref c[8]=n c[12]=d c[16]=penalty
.kernel nw_diag
	S2R   R0, %gtid
	LDC   R1, c[0]
	LDC   R2, c[4]
	LDC   R3, c[8]
	LDC   R4, c[12]
	LDC   R5, c[16]
	// i = max(1, d-n) + tid ; j = d - i
	ISUB  R6, R4, R3
	MOV   R7, 1
	IMAX  R6, R6, R7
	IADD  R8, R6, R0
	ISUB  R9, R4, R8
	ISETP.GT P0, R8, R3
@P0	EXIT
	ISETP.LT P1, R9, 1
@P1	EXIT
	IADD  R10, R3, 1           // matrix width
	IADD  R11, R8, -1
	IMAD  R12, R11, R10, R9
	IADD  R12, R12, -1
	SHL   R13, R12, 2
	IADD  R13, R1, R13
	LDG   R14, [R13]           // score[i-1][j-1]
	IADD  R12, R12, 1
	SHL   R13, R12, 2
	IADD  R13, R1, R13
	LDG   R15, [R13]           // score[i-1][j]
	IMAD  R12, R8, R10, R9
	IADD  R12, R12, -1
	SHL   R13, R12, 2
	IADD  R13, R1, R13
	LDG   R16, [R13]           // score[i][j-1]
	IADD  R17, R9, -1
	IMAD  R18, R11, R3, R17
	SHL   R18, R18, 2
	IADD  R18, R2, R18
	LDG   R19, [R18]           // ref[i-1][j-1]
	IADD  R14, R14, R19
	ISUB  R15, R15, R5
	ISUB  R16, R16, R5
	IMAX  R14, R14, R15
	IMAX  R14, R14, R16
	IMAD  R20, R8, R10, R9
	SHL   R20, R20, 2
	IADD  R20, R1, R20
	STG   [R20], R14
	EXIT
`

// nwReference fills the score matrix on the CPU.
func nwReference(ref []int32, nwN int) []int32 {
	n, w := nwN, nwN+1
	score := make([]int32, w*w)
	for i := 0; i <= n; i++ {
		score[i*w] = int32(-i * nwPenalty)
		score[i] = int32(-i * nwPenalty)
	}
	max3 := func(a, b, c int32) int32 {
		m := a
		if b > m {
			m = b
		}
		if c > m {
			m = c
		}
		return m
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			score[i*w+j] = max3(
				score[(i-1)*w+j-1]+ref[(i-1)*n+j-1],
				score[(i-1)*w+j]-nwPenalty,
				score[i*w+j-1]-nwPenalty,
			)
		}
	}
	return score
}

// NW builds the Needleman-Wunsch application at the default size.
func NW() *App { return NWScale(1) }

// NWScale builds Needleman-Wunsch with the sequence length scaled.
func NWScale(scale int) *App {
	nwN := 48 * scale
	progs := mustKernels(nwSrc)
	r := rng(909)
	ref := make([]int32, nwN*nwN)
	for i := range ref {
		ref[i] = int32(r.Intn(21) - 10) // similarity scores in [-10,10]
	}
	refBytes := i32Bytes(nwReference(ref, nwN))

	n, w := nwN, nwN+1
	score := make([]int32, w*w)
	for i := 0; i <= n; i++ {
		score[i*w] = int32(-i * nwPenalty)
		score[i] = int32(-i * nwPenalty)
	}
	scoreBytes, simBytes := i32Bytes(score), i32Bytes(ref)

	run := func(g *sim.GPU) ([]byte, error) {
		dScore, err := upload(g, scoreBytes)
		if err != nil {
			return nil, err
		}
		dRef, err := upload(g, simBytes)
		if err != nil {
			return nil, err
		}
		for d := 2; d <= 2*n; d++ {
			lo := d - n
			if lo < 1 {
				lo = 1
			}
			hi := d - 1
			if hi > n {
				hi = n
			}
			cells := hi - lo + 1
			grid := sim.Dim1((cells + nwBlock - 1) / nwBlock)
			if _, err := g.Launch(progs["nw_diag"], grid, sim.Dim1(nwBlock),
				dScore, dRef, uint32(n), uint32(d), uint32(nwPenalty)); err != nil {
				return nil, err
			}
		}
		return download(g, dScore, 4*w*w)
	}

	return &App{
		Name:      "NW",
		Kernels:   []string{"nw_diag"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return bytesEqual(out, refBytes) },
	}
}
