package bench

import "gpufi/internal/sim"

// LU Decomposition (Rodinia): in-place Doolittle elimination. Per step k
// the host launches two kernels — lud_div scales the pivot column,
// lud_update eliminates the trailing submatrix — giving the many-invocation
// static-kernel structure of Rodinia's lud (diagonal/perimeter/internal).
const (
	ludN     = 32
	ludBlock = 32
)

const ludSrc = `
// params: c[0]=&A c[4]=n c[8]=k
.kernel lud_div
	S2R   R0, %gtid
	LDC   R1, c[4]
	LDC   R2, c[8]
	IADD  R3, R1, -1
	ISUB  R3, R3, R2           // rows below pivot
	ISETP.GE P0, R0, R3
@P0	EXIT
	LDC   R4, c[0]
	IADD  R5, R2, 1
	IADD  R5, R5, R0           // i = k+1+tid
	IMAD  R6, R5, R1, R2       // i*n + k
	SHL   R6, R6, 2
	IADD  R6, R4, R6
	LDG   R7, [R6]
	IMAD  R8, R2, R1, R2       // k*n + k
	SHL   R8, R8, 2
	IADD  R8, R4, R8
	LDG   R9, [R8]
	FDIV  R7, R7, R9
	STG   [R6], R7
	EXIT

// params: c[0]=&A c[4]=n c[8]=k
.kernel lud_update
	S2R   R0, %gtid
	LDC   R1, c[4]
	LDC   R2, c[8]
	IADD  R3, R1, -1
	ISUB  R3, R3, R2           // m = n-1-k
	IMUL  R4, R3, R3
	ISETP.GE P0, R0, R4
@P0	EXIT
	IDIV  R5, R0, R3           // local row
	IREM  R6, R0, R3           // local col
	IADD  R7, R2, 1
	IADD  R5, R5, R7           // i
	IADD  R6, R6, R7           // j
	LDC   R8, c[0]
	IMAD  R9, R5, R1, R2       // i*n + k
	SHL   R9, R9, 2
	IADD  R9, R8, R9
	LDG   R10, [R9]            // multiplier
	IMAD  R11, R2, R1, R6      // k*n + j
	SHL   R11, R11, 2
	IADD  R11, R8, R11
	LDG   R12, [R11]
	IMAD  R13, R5, R1, R6      // i*n + j
	SHL   R13, R13, 2
	IADD  R13, R8, R13
	LDG   R14, [R13]
	FMUL  R15, R10, R12
	FSUB  R14, R14, R15
	STG   [R13], R14
	EXIT
`

// ludReference performs the same elimination on the CPU in float32.
func ludReference(a []float32, n int) []float32 {
	m := append([]float32(nil), a...)
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			m[i*n+k] = m[i*n+k] / m[k*n+k]
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				m[i*n+j] = m[i*n+j] - m[i*n+k]*m[k*n+j]
			}
		}
	}
	return m
}

// LUD builds the LU Decomposition application at the default size.
func LUD() *App { return LUDScale(1) }

// LUDScale builds LUD with the matrix edge scaled.
func LUDScale(scale int) *App {
	progs := mustKernels(ludSrc)
	r := rng(707)
	n := ludN * scale
	// Diagonally dominant matrix keeps the factorization stable.
	a := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = r.Float32()*2 - 1
		}
		a[i*n+i] += float32(n)
	}
	refBytes := f32Bytes(ludReference(a, n))

	aBytes := f32Bytes(a)

	run := func(g *sim.GPU) ([]byte, error) {
		dA, err := upload(g, aBytes)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n-1; k++ {
			rows := n - 1 - k
			grid := sim.Dim1((rows + ludBlock - 1) / ludBlock)
			if _, err := g.Launch(progs["lud_div"], grid, sim.Dim1(ludBlock),
				dA, uint32(n), uint32(k)); err != nil {
				return nil, err
			}
			cells := rows * rows
			grid = sim.Dim1((cells + ludBlock - 1) / ludBlock)
			if _, err := g.Launch(progs["lud_update"], grid, sim.Dim1(ludBlock),
				dA, uint32(n), uint32(k)); err != nil {
				return nil, err
			}
		}
		return download(g, dA, 4*n*n)
	}

	return &App{
		Name:      "LUD",
		Kernels:   []string{"lud_div", "lud_update"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-3) },
	}
}
