package bench

import "gpufi/internal/sim"

// Gaussian Elimination (Rodinia "gaussian"): forward elimination of a
// linear system on the GPU with Rodinia's Fan1 (multiplier column) and
// Fan2 (submatrix + RHS update) kernels, back-substitution on the host.
const (
	geN     = 32
	geBlock = 32
)

const geSrc = `
// params: c[0]=&a c[4]=&m c[8]=n c[12]=k
.kernel ge_fan1
	S2R   R0, %gtid
	LDC   R1, c[8]
	LDC   R2, c[12]
	IADD  R3, R1, -1
	ISUB  R3, R3, R2
	ISETP.GE P0, R0, R3
@P0	EXIT
	LDC   R4, c[0]
	LDC   R5, c[4]
	IADD  R6, R2, 1
	IADD  R6, R6, R0           // i = k+1+tid
	IMAD  R7, R6, R1, R2       // i*n + k
	SHL   R7, R7, 2
	IADD  R8, R4, R7
	LDG   R9, [R8]             // a[i][k]
	IMAD  R10, R2, R1, R2
	SHL   R10, R10, 2
	IADD  R10, R4, R10
	LDG   R11, [R10]           // a[k][k]
	FDIV  R9, R9, R11
	IADD  R12, R5, R7
	STG   [R12], R9            // m[i][k]
	EXIT

// params: c[0]=&a c[4]=&m c[8]=&b c[12]=n c[16]=k
.kernel ge_fan2
	S2R   R0, %gtid
	LDC   R1, c[12]
	LDC   R2, c[16]
	IADD  R3, R1, -1
	ISUB  R3, R3, R2           // rows = n-1-k
	ISUB  R4, R1, R2           // cols = n-k
	IMUL  R5, R3, R4
	ISETP.GE P0, R0, R5
@P0	EXIT
	IDIV  R6, R0, R4           // local row
	IREM  R7, R0, R4           // local col
	IADD  R8, R2, 1
	IADD  R6, R6, R8           // i
	IADD  R9, R7, R2           // j = k + lcol
	LDC   R10, c[0]
	LDC   R11, c[4]
	IMAD  R12, R6, R1, R2      // i*n + k
	SHL   R12, R12, 2
	IADD  R12, R11, R12
	LDG   R13, [R12]           // mult = m[i][k]
	IMAD  R14, R2, R1, R9      // k*n + j
	SHL   R14, R14, 2
	IADD  R14, R10, R14
	LDG   R15, [R14]           // a[k][j]
	IMAD  R16, R6, R1, R9      // i*n + j
	SHL   R16, R16, 2
	IADD  R16, R10, R16
	LDG   R17, [R16]
	FMUL  R18, R13, R15
	FSUB  R17, R17, R18
	STG   [R16], R17
	// first column thread also updates b[i] -= mult*b[k]
	ISETP.NE P1, R7, 0
@P1	EXIT
	LDC   R19, c[8]
	SHL   R20, R2, 2
	IADD  R20, R19, R20
	LDG   R21, [R20]           // b[k]
	SHL   R22, R6, 2
	IADD  R22, R19, R22
	LDG   R23, [R22]           // b[i]
	FMUL  R24, R13, R21
	FSUB  R23, R23, R24
	STG   [R22], R23
	EXIT
`

// geReference eliminates on the CPU with the kernel's float32 order and
// returns the concatenated (a, b) state after forward elimination.
func geReference(a, b []float32, n int) ([]float32, []float32) {
	am := append([]float32(nil), a...)
	bm := append([]float32(nil), b...)
	m := make([]float32, n*n)
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			m[i*n+k] = am[i*n+k] / am[k*n+k]
		}
		for i := k + 1; i < n; i++ {
			for j := k; j < n; j++ {
				am[i*n+j] = am[i*n+j] - m[i*n+k]*am[k*n+j]
			}
			bm[i] = bm[i] - m[i*n+k]*bm[k]
		}
	}
	return am, bm
}

// GE builds the Gaussian Elimination application at the default size.
// The output is the eliminated matrix and RHS.
func GE() *App { return GEScale(1) }

// GEScale builds Gaussian Elimination with the system size scaled.
func GEScale(scale int) *App {
	progs := mustKernels(geSrc)
	r := rng(1010)
	n := geN * scale
	a := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = r.Float32()*2 - 1
		}
		a[i*n+i] += float32(n)
	}
	b := f32Slice(n, func(int) float32 { return r.Float32() * 10 })
	refA, refB := geReference(a, b, n)
	refBytes := append(f32Bytes(refA), f32Bytes(refB)...)

	aBytes, bBytes := f32Bytes(a), f32Bytes(b)

	run := func(g *sim.GPU) ([]byte, error) {
		dA, err := upload(g, aBytes)
		if err != nil {
			return nil, err
		}
		dM, err := g.Malloc(uint32(4 * n * n))
		if err != nil {
			return nil, err
		}
		dB, err := upload(g, bBytes)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n-1; k++ {
			rows := n - 1 - k
			grid := sim.Dim1((rows + geBlock - 1) / geBlock)
			if _, err := g.Launch(progs["ge_fan1"], grid, sim.Dim1(geBlock),
				dA, dM, uint32(n), uint32(k)); err != nil {
				return nil, err
			}
			cells := rows * (n - k)
			grid = sim.Dim1((cells + geBlock - 1) / geBlock)
			if _, err := g.Launch(progs["ge_fan2"], grid, sim.Dim1(geBlock),
				dA, dM, dB, uint32(n), uint32(k)); err != nil {
				return nil, err
			}
		}
		ab, err := download(g, dA, 4*n*n)
		if err != nil {
			return nil, err
		}
		bb, err := download(g, dB, 4*n)
		if err != nil {
			return nil, err
		}
		return append(ab, bb...), nil
	}

	return &App{
		Name:      "GE",
		Kernels:   []string{"ge_fan1", "ge_fan2"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-3) },
	}
}
