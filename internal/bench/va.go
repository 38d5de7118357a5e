package bench

import "gpufi/internal/sim"

// vaN is the vector length (CUDA SDK vectorAdd, reduced).
const vaN = 4096

const vaSrc = `
// Vector Addition (CUDA SDK): c[i] = a[i] + b[i]
.kernel va_add
	S2R   R0, %gtid
	LDC   R1, c[0]            // &a
	LDC   R2, c[4]            // &b
	LDC   R3, c[8]            // &c
	LDC   R4, c[12]           // n
	ISETP.GE P0, R0, R4
@P0	EXIT
	SHL   R5, R0, 2
	IADD  R6, R1, R5
	LDG   R7, [R6]
	IADD  R6, R2, R5
	LDG   R8, [R6]
	FADD  R7, R7, R8
	IADD  R6, R3, R5
	STG   [R6], R7
	EXIT
`

// VA builds the Vector Addition application at the default size.
func VA() *App { return VAScale(1) }

// VAScale builds Vector Addition with the vector length scaled.
func VAScale(scale int) *App {
	n := vaN * scale
	progs := mustKernels(vaSrc)
	r := rng(101)
	a := f32Slice(n, func(int) float32 { return r.Float32()*20 - 10 })
	b := f32Slice(n, func(int) float32 { return r.Float32()*20 - 10 })

	ref := f32Slice(n, func(i int) float32 { return a[i] + b[i] })
	refBytes := f32Bytes(ref)

	aBytes, bBytes := f32Bytes(a), f32Bytes(b)

	run := func(g *sim.GPU) ([]byte, error) {
		da, err := upload(g, aBytes)
		if err != nil {
			return nil, err
		}
		db, err := upload(g, bBytes)
		if err != nil {
			return nil, err
		}
		dc, err := g.Malloc(uint32(4 * n))
		if err != nil {
			return nil, err
		}
		block := 64
		grid := (n + block - 1) / block
		if _, err := g.Launch(progs["va_add"], sim.Dim1(grid), sim.Dim1(block),
			da, db, dc, uint32(n)); err != nil {
			return nil, err
		}
		return download(g, dc, 4*n)
	}

	return &App{
		Name:      "VA",
		Kernels:   []string{"va_add"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-6) },
	}
}
