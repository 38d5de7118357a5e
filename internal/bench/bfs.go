package bench

import (
	"fmt"

	"gpufi/internal/sim"
)

// Breadth-First Search (Rodinia): frontier-expansion BFS over a CSR graph.
// Two kernels per level, exactly like Rodinia's Kernel/Kernel2 pair, with
// a host loop until the frontier empties.
const (
	bfsDegree = 4
	bfsBlock  = 64
)

const bfsSrc = `
// params: c[0]=&rowptr c[4]=&col c[8]=&frontier c[12]=&visited
//         c[16]=&cost  c[20]=&updating c[24]=n
.kernel bfs_k1
	S2R   R0, %gtid
	LDC   R1, c[24]
	ISETP.GE P0, R0, R1
@P0	EXIT
	LDC   R2, c[8]             // frontier
	SHL   R3, R0, 2
	IADD  R4, R2, R3
	LDG   R5, [R4]
	ISETP.EQ P1, R5, 0
@P1	EXIT
	STG   [R4], RZ             // frontier[v] = 0
	LDC   R6, c[0]             // rowptr
	IADD  R7, R6, R3
	LDG   R8, [R7]             // e = rowptr[v]
	LDG   R9, [R7+4]           // end = rowptr[v+1]
	LDC   R10, c[12]           // visited
	LDC   R11, c[16]           // cost
	IADD  R12, R11, R3
	LDG   R13, [R12]
	IADD  R13, R13, 1          // cost[v] + 1
	LDC   R14, c[4]            // col
	LDC   R15, c[20]           // updating
	MOV   R24, 1
bfs_eloop:
	ISETP.GE P2, R8, R9
@P2	EXIT
	SHL   R16, R8, 2
	IADD  R17, R14, R16
	LDG   R18, [R17]           // nb = col[e]
	SHL   R19, R18, 2
	IADD  R20, R10, R19
	LDG   R21, [R20]           // visited[nb]
	ISETP.NE P3, R21, 0
@P3	BRA   bfs_next
	IADD  R22, R11, R19
	STG   [R22], R13           // cost[nb] = cost[v]+1
	IADD  R23, R15, R19
	STG   [R23], R24           // updating[nb] = 1
bfs_next:
	IADD  R8, R8, 1
	BRA   bfs_eloop

// params: c[0]=&frontier c[4]=&visited c[8]=&updating c[12]=&changed c[16]=n
.kernel bfs_k2
	S2R   R0, %gtid
	LDC   R1, c[16]
	ISETP.GE P0, R0, R1
@P0	EXIT
	LDC   R2, c[8]             // updating
	SHL   R3, R0, 2
	IADD  R4, R2, R3
	LDG   R5, [R4]
	ISETP.EQ P1, R5, 0
@P1	EXIT
	STG   [R4], RZ             // updating[v] = 0
	MOV   R6, 1
	LDC   R7, c[0]             // frontier
	IADD  R8, R7, R3
	STG   [R8], R6             // frontier[v] = 1
	LDC   R9, c[4]             // visited
	IADD  R10, R9, R3
	STG   [R10], R6            // visited[v] = 1
	LDC   R11, c[12]           // changed flag
	STG   [R11], R6
	EXIT
`

// bfsGraph builds the deterministic CSR test graph with n nodes.
func bfsGraph(n int) (rowptr, col []int32) {
	r := rng(303)
	adj := make([][]int32, n)
	// A ring keeps the graph connected; extra random edges add divergence.
	for v := 0; v < n; v++ {
		adj[v] = append(adj[v], int32((v+1)%n))
		for d := 1; d < bfsDegree; d++ {
			adj[v] = append(adj[v], int32(r.Intn(n)))
		}
	}
	rowptr = make([]int32, n+1)
	for v := 0; v < n; v++ {
		rowptr[v+1] = rowptr[v] + int32(len(adj[v]))
		col = append(col, adj[v]...)
	}
	return rowptr, col
}

// bfsReference computes BFS levels on the CPU.
func bfsReference(rowptr, col []int32) []int32 {
	bfsNodes := len(rowptr) - 1
	cost := make([]int32, bfsNodes)
	for i := range cost {
		cost[i] = -1
	}
	cost[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for e := rowptr[v]; e < rowptr[v+1]; e++ {
			nb := col[e]
			if cost[nb] == -1 {
				cost[nb] = cost[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return cost
}

// BFS builds the Breadth-First Search application at the default size.
func BFS() *App { return BFSScale(1) }

// BFSScale builds BFS with the node count scaled.
func BFSScale(scale int) *App {
	bfsNodes := 768 * scale
	progs := mustKernels(bfsSrc)
	rowptr, col := bfsGraph(bfsNodes)
	refBytes := i32Bytes(bfsReference(rowptr, col))

	frontier := make([]int32, bfsNodes)
	visited := make([]int32, bfsNodes)
	cost := make([]int32, bfsNodes)
	for i := range cost {
		cost[i] = -1
	}
	frontier[0], visited[0], cost[0] = 1, 1, 0
	rowBytes, colBytes := i32Bytes(rowptr), i32Bytes(col)
	frontBytes, visBytes, costBytes := i32Bytes(frontier), i32Bytes(visited), i32Bytes(cost)
	updBytes, zero := i32Bytes(make([]int32, bfsNodes)), i32Bytes([]int32{0})

	run := func(g *sim.GPU) ([]byte, error) {
		dRow, err := upload(g, rowBytes)
		if err != nil {
			return nil, err
		}
		dCol, err := upload(g, colBytes)
		if err != nil {
			return nil, err
		}
		dFront, err := upload(g, frontBytes)
		if err != nil {
			return nil, err
		}
		dVis, err := upload(g, visBytes)
		if err != nil {
			return nil, err
		}
		dCost, err := upload(g, costBytes)
		if err != nil {
			return nil, err
		}
		dUpd, err := upload(g, updBytes)
		if err != nil {
			return nil, err
		}
		dChanged, err := upload(g, zero)
		if err != nil {
			return nil, err
		}

		grid := sim.Dim1((bfsNodes + bfsBlock - 1) / bfsBlock)
		block := sim.Dim1(bfsBlock)
		for level := 0; ; level++ {
			if level > bfsNodes {
				return nil, fmt.Errorf("bfs: frontier never drained")
			}
			if err := g.MemcpyHtoD(dChanged, zero); err != nil {
				return nil, err
			}
			if _, err := g.Launch(progs["bfs_k1"], grid, block,
				dRow, dCol, dFront, dVis, dCost, dUpd, uint32(bfsNodes)); err != nil {
				return nil, err
			}
			if _, err := g.Launch(progs["bfs_k2"], grid, block,
				dFront, dVis, dUpd, dChanged, uint32(bfsNodes)); err != nil {
				return nil, err
			}
			flag, err := download(g, dChanged, 4)
			if err != nil {
				return nil, err
			}
			if bytesI32(flag)[0] == 0 {
				break
			}
		}
		return download(g, dCost, 4*bfsNodes)
	}

	return &App{
		Name:      "BFS",
		Kernels:   []string{"bfs_k1", "bfs_k2"},
		Run:       run,
		Reference: refBytes,
		RefOK:     func(out []byte) bool { return bytesEqual(out, refBytes) },
	}
}
