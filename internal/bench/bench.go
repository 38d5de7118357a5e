// Package bench implements the paper's twelve benchmark applications
// (Rodinia suite + CUDA SDK) for the gpuFI-4 simulator: Hot Spot (HS),
// K-Means (KM), SRAD v1 and v2, LU Decomposition (LUD), Breadth-First
// Search (BFS), Pathfinder (PATHF), Needleman-Wunsch (NW), Gaussian
// Elimination (GE), Backpropagation (BP), Vector Addition (VA), and Scalar
// Product (SP).
//
// Each application is a host program in Go driving one or more kernels
// written in the SASS-like assembly, with deterministic seeded inputs and
// a CPU reference implementation. The algorithmic shape of each original
// (memory footprint, divergence pattern, shared-memory usage, multi-kernel
// structure) is preserved at reduced problem sizes.
package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gpufi/internal/asm"
	"gpufi/internal/isa"
	"gpufi/internal/sim"
)

// App is one benchmark application.
type App struct {
	// Name is the paper's abbreviation (VA, SP, BFS, ...).
	Name string

	// Kernels lists the static kernel names the app launches.
	Kernels []string

	// Run executes the full application (all kernel invocations plus host
	// logic) on a fresh GPU and returns the output the success check
	// compares. The paper's modified CUDA apps print PASS/FAIL by
	// comparing this output against a fault-free reference.
	Run func(g *sim.GPU) ([]byte, error)

	// Reference is the CPU ("golden") result used to validate that the
	// GPU kernels compute the right thing. Fault classification instead
	// compares against the fault-free *simulated* output byte-for-byte,
	// as the paper's predefined result file does.
	Reference []byte

	// RefOK checks a run's output against Reference with the tolerance
	// appropriate for the app's arithmetic.
	RefOK func(out []byte) bool
}

// names in paper order
var appOrder = []string{"HS", "KM", "SRAD1", "SRAD2", "LUD", "BFS", "PATHF", "NW", "GE", "BP", "VA", "SP"}

// constructors maps names to scale-parameterized constructors.
var constructors = map[string]func(int) *App{
	"HS": HSScale, "KM": KMScale, "SRAD1": SRAD1Scale, "SRAD2": SRAD2Scale,
	"LUD": LUDScale, "BFS": BFSScale, "PATHF": PATHFScale, "NW": NWScale,
	"GE": GEScale, "BP": BPScale, "VA": VAScale, "SP": SPScale,
}

// All returns fresh instances of the twelve applications in the paper's
// listing order, at the default (reduced) problem sizes.
func All() []*App { return AllScale(1) }

// AllScale returns the twelve applications with every problem size
// multiplied by scale. Larger scales approach the paper's full-size
// Rodinia/SDK inputs: occupancies, derating factors and cache residency
// all grow with the footprint, at proportionally higher simulation cost.
func AllScale(scale int) []*App {
	apps := make([]*App, 0, len(appOrder))
	for _, name := range appOrder {
		apps = append(apps, constructors[name](scale))
	}
	return apps
}

// Names returns the application names in the paper's order.
func Names() []string { return append([]string(nil), appOrder...) }

// ByName builds the named application at the default size.
func ByName(name string) (*App, error) { return ByNameScale(name, 1) }

// ByNameScale builds the named application at the given size scale.
func ByNameScale(name string, scale int) (*App, error) {
	ctor, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown application %q (have %v)", name, appOrder)
	}
	if scale < 1 {
		return nil, fmt.Errorf("bench: scale %d must be at least 1", scale)
	}
	return ctor(scale), nil
}

// mustKernels assembles benchmark kernel sources, panicking on error —
// the sources are package constants exercised by the test suite, in the
// spirit of regexp.MustCompile.
func mustKernels(src string) map[string]*isa.Program {
	progs, err := asm.AssembleAll(src)
	if err != nil {
		panic(fmt.Sprintf("bench: internal kernel source failed to assemble: %v", err))
	}
	return progs
}

// --- host-side data plumbing helpers ---

func f32Slice(n int, f func(i int) float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = f(i)
	}
	return s
}

func f32Bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
	}
	return b
}

func bytesF32(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

func i32Bytes(v []int32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(x))
	}
	return b
}

func bytesI32(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

// upload allocates device memory and copies data to it. An application
// encodes the inputs that never change once, when it is built, and every run
// uploads those bytes: a campaign fork replaying the recorded prefix elides
// the copy but would still pay for an encoding done inside Run.
func upload(g *sim.GPU, data []byte) (uint32, error) {
	d, err := g.Malloc(uint32(len(data)))
	if err != nil {
		return 0, err
	}
	if err := g.MemcpyHtoD(d, data); err != nil {
		return 0, err
	}
	return d, nil
}

// download copies n bytes back from device memory.
func download(g *sim.GPU, addr uint32, n int) ([]byte, error) {
	b := make([]byte, n)
	if err := g.MemcpyDtoH(b, addr); err != nil {
		return nil, err
	}
	return b, nil
}

// floatsClose compares float32 buffers with a relative/absolute tolerance.
func floatsClose(got, want []byte, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := bytesF32(got), bytesF32(want)
	for i := range g {
		diff := math.Abs(float64(g[i] - w[i]))
		scale := math.Max(math.Abs(float64(w[i])), 1)
		if diff > tol*scale {
			return false
		}
	}
	return true
}

// bytesEqual is the exact comparator for integer outputs.
func bytesEqual(got, want []byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// rng returns the deterministic input generator for an app.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// f32bitsOf returns the raw bits of a float32 for passing as a kernel
// parameter word.
func f32bitsOf(f float32) uint32 { return math.Float32bits(f) }
