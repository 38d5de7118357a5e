package bench

import "gpufi/internal/sim"

// K-Means (Rodinia): iterative clustering. The assignment kernel computes
// each point's nearest centroid on the GPU (nested loops over clusters and
// features — the divergence-heavy part Rodinia offloads); the host updates
// the centroids between iterations, as Rodinia's CPU side does.
const (
	kmFeatures = 4
	kmClusters = 5
	kmIters    = 3
	kmBlock    = 64
)

const kmSrc = `
// params: c[0]=&points c[4]=&centroids c[8]=&assign c[12]=n c[16]=k c[20]=d
.kernel km_assign
	S2R   R0, %gtid
	LDC   R1, c[12]            // n
	ISETP.GE P0, R0, R1
@P0	EXIT
	LDC   R2, c[0]             // points
	LDC   R3, c[4]             // centroids
	LDC   R4, c[20]            // d
	IMUL  R5, R0, R4
	SHL   R5, R5, 2
	IADD  R5, R2, R5           // &points[i*d]
	LDC   R6, c[16]            // k
	MOV   R7, 0                // best cluster
	MOV   R8, 0x7F7FFFFF       // best dist = +FLT_MAX
	MOV   R9, 0                // c = 0
km_cluster:
	ISETP.GE P1, R9, R6
@P1	BRA   km_done
	IMUL  R10, R9, R4
	SHL   R10, R10, 2
	IADD  R10, R3, R10         // &centroids[c*d]
	MOV   R11, 0f              // dist accumulator
	MOV   R12, 0               // f = 0
km_feat:
	ISETP.GE P2, R12, R4
@P2	BRA   km_cmp
	SHL   R13, R12, 2
	IADD  R14, R5, R13
	LDG   R15, [R14]           // x[f]
	IADD  R14, R10, R13
	LDG   R16, [R14]           // cent[f]
	FSUB  R17, R15, R16
	FFMA  R11, R17, R17, R11
	IADD  R12, R12, 1
	BRA   km_feat
km_cmp:
	FSETP.LT P3, R11, R8
@!P3	BRA   km_next
	MOV   R8, R11
	MOV   R7, R9
km_next:
	IADD  R9, R9, 1
	BRA   km_cluster
km_done:
	LDC   R18, c[8]            // assign
	SHL   R19, R0, 2
	IADD  R19, R18, R19
	STG   [R19], R7
	EXIT
`

// kmAssignCPU computes nearest centroids with the kernel's float32
// arithmetic (FFMA uses a float64 intermediate).
func kmAssignCPU(points, cents []float32, assign []int32) {
	kmPoints := len(assign)
	for i := 0; i < kmPoints; i++ {
		best, bestD := int32(0), float32(3.4028235e38)
		for c := 0; c < kmClusters; c++ {
			var dist float32
			for f := 0; f < kmFeatures; f++ {
				diff := points[i*kmFeatures+f] - cents[c*kmFeatures+f]
				dist = float32(float64(diff)*float64(diff) + float64(dist))
			}
			if dist < bestD {
				bestD, best = dist, int32(c)
			}
		}
		assign[i] = best
	}
}

// kmUpdate recomputes centroids as the mean of their members (host side).
func kmUpdate(points []float32, assign []int32) []float32 {
	kmPoints := len(assign)
	sums := make([]float64, kmClusters*kmFeatures)
	counts := make([]int, kmClusters)
	for i := 0; i < kmPoints; i++ {
		c := int(assign[i])
		if c < 0 || c >= kmClusters {
			c = 0 // corrupted assignment degrades, does not panic
		}
		counts[c]++
		for f := 0; f < kmFeatures; f++ {
			sums[c*kmFeatures+f] += float64(points[i*kmFeatures+f])
		}
	}
	out := make([]float32, kmClusters*kmFeatures)
	for c := 0; c < kmClusters; c++ {
		for f := 0; f < kmFeatures; f++ {
			if counts[c] > 0 {
				out[c*kmFeatures+f] = float32(sums[c*kmFeatures+f] / float64(counts[c]))
			}
		}
	}
	return out
}

// KM builds the K-Means application at the default size. The output is
// the final assignment vector.
func KM() *App { return KMScale(1) }

// KMScale builds K-Means with the point count scaled.
func KMScale(scale int) *App {
	kmPoints := 1024 * scale
	progs := mustKernels(kmSrc)
	r := rng(505)
	points := f32Slice(kmPoints*kmFeatures, func(int) float32 { return r.Float32() * 100 })
	initCents := f32Slice(kmClusters*kmFeatures, func(int) float32 { return r.Float32() * 100 })

	// CPU reference.
	refAssign := make([]int32, kmPoints)
	cents := append([]float32(nil), initCents...)
	for it := 0; it < kmIters; it++ {
		kmAssignCPU(points, cents, refAssign)
		cents = kmUpdate(points, refAssign)
	}
	refBytes := i32Bytes(refAssign)

	pointBytes, centBytes := f32Bytes(points), f32Bytes(initCents)

	run := func(g *sim.GPU) ([]byte, error) {
		dP, err := upload(g, pointBytes)
		if err != nil {
			return nil, err
		}
		dC, err := upload(g, centBytes)
		if err != nil {
			return nil, err
		}
		dA, err := g.Malloc(uint32(4 * kmPoints))
		if err != nil {
			return nil, err
		}
		grid := sim.Dim1((kmPoints + kmBlock - 1) / kmBlock)
		for it := 0; it < kmIters; it++ {
			if _, err := g.Launch(progs["km_assign"], grid, sim.Dim1(kmBlock),
				dP, dC, dA, uint32(kmPoints), uint32(kmClusters), uint32(kmFeatures)); err != nil {
				return nil, err
			}
			ab, err := download(g, dA, 4*kmPoints)
			if err != nil {
				return nil, err
			}
			newCents := kmUpdate(points, bytesI32(ab))
			if err := g.MemcpyHtoD(dC, f32Bytes(newCents)); err != nil {
				return nil, err
			}
		}
		return download(g, dA, 4*kmPoints)
	}

	return &App{
		Name:      "KM",
		Kernels:   []string{"km_assign"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return bytesEqual(out, refBytes) },
	}
}
