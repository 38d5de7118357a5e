package bench

import "gpufi/internal/sim"

// Scalar Product (CUDA SDK scalarProd): dot products of spPairs vector
// pairs of spElems elements each. One CTA per pair; inputs stream through
// the texture path (TLD), partial sums reduce in shared memory.
const (
	spPairs = 24
	spElems = 256
	spBlock = 64
)

const spSrc = `
// Scalar Product (CUDA SDK): C[p] = dot(A[p*E .. ], B[p*E .. ])
.kernel sp_dot
.smem 256                      // spBlock * 4
	S2R   R0, %tid.x
	S2R   R1, %ctaid.x
	LDC   R2, c[0]             // &A
	LDC   R3, c[4]             // &B
	LDC   R4, c[8]             // &C
	LDC   R5, c[12]            // E
	IMUL  R6, R1, R5           // base element of this pair
	MOV   R7, 0f               // acc
	S2R   R8, %tid.x           // i = tid
	S2R   R13, %ntid.x
sp_loop:
	ISETP.GE P0, R8, R5
@P0	BRA   sp_red
	IADD  R9, R6, R8
	SHL   R9, R9, 2
	IADD  R10, R2, R9
	TLD   R11, [R10]
	IADD  R10, R3, R9
	TLD   R12, [R10]
	FFMA  R7, R11, R12, R7
	IADD  R8, R8, R13
	BRA   sp_loop
sp_red:
	SHL   R14, R0, 2
	STS   [R14], R7
	BAR
	MOV   R15, 32
sp_fold:
	ISETP.LT P1, R15, 1
@P1	BRA   sp_fin
	ISETP.GE P2, R0, R15
@P2	BRA   sp_skip
	IADD  R16, R0, R15
	SHL   R16, R16, 2
	LDS   R17, [R16]
	LDS   R18, [R14]
	FADD  R18, R18, R17
	STS   [R14], R18
sp_skip:
	BAR
	SHR   R15, R15, 1
	BRA   sp_fold
sp_fin:
	ISETP.NE P3, R0, 0
@P3	EXIT
	LDS   R19, [0]
	SHL   R20, R1, 2
	IADD  R20, R4, R20
	STG   [R20], R19
	EXIT
`

// SP builds the Scalar Product application at the default size.
func SP() *App { return SPScale(1) }

// SPScale builds Scalar Product with the pair count scaled.
func SPScale(scale int) *App {
	pairs := spPairs * scale
	progs := mustKernels(spSrc)
	r := rng(202)
	n := pairs * spElems
	a := f32Slice(n, func(int) float32 { return r.Float32()*2 - 1 })
	b := f32Slice(n, func(int) float32 { return r.Float32()*2 - 1 })

	// CPU reference with float64 accumulation; compared with tolerance.
	ref := make([]float32, pairs)
	for p := 0; p < pairs; p++ {
		var acc float64
		for e := 0; e < spElems; e++ {
			acc += float64(a[p*spElems+e]) * float64(b[p*spElems+e])
		}
		ref[p] = float32(acc)
	}
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
		dc, err := g.Malloc(uint32(4 * pairs))
		if err != nil {
			return nil, err
		}
		if _, err := g.Launch(progs["sp_dot"], sim.Dim1(pairs), sim.Dim1(spBlock),
			da, db, dc, uint32(spElems)); err != nil {
			return nil, err
		}
		return download(g, dc, 4*pairs)
	}

	return &App{
		Name:      "SP",
		Kernels:   []string{"sp_dot"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return floatsClose(out, refBytes, 1e-4) },
	}
}
