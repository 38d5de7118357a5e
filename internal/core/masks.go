// Package core implements gpuFI-4 proper — the fault-injection framework
// the paper layers over the simulator. It has the paper's three modules:
//
//   - the fault-mask generator, which draws statistically sampled
//     injection targets (cycle within the target kernel's invocation
//     windows, bit positions within the target structure);
//   - the injection campaign controller, which runs the experiments (one
//     fresh simulation per injection, in parallel) and classifies each
//     outcome against the fault-free execution;
//   - the parser, which reads logged experiment records back and
//     aggregates them into the fault-effect statistics the AVF and FIT
//     computations consume.
package core

import (
	"fmt"
	"math/rand"
	"slices"

	"gpufi/internal/config"
	"gpufi/internal/lazyrand"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// StructSizeBits returns the injectable bit-space of a structure for a
// kernel with the given static demands, on the given GPU. This is the
// range the mask generator draws bit positions from (FaultSpec coordinate
// spaces). Zero means the structure is not injectable for this kernel or
// card (e.g. no shared memory used, or no L1D on Kepler).
func StructSizeBits(gpu *config.GPU, st sim.Structure, regsPerThread, smemPerCTA, localPerThread int) int64 {
	switch st {
	case sim.StructRegFile:
		return int64(regsPerThread) * 32
	case sim.StructShared:
		return int64(smemPerCTA) * 8
	case sim.StructLocal:
		return int64(localPerThread) * 8
	case sim.StructL1D:
		if gpu.L1D == nil {
			return 0
		}
		return gpu.L1D.SizeBits()
	case sim.StructL1T:
		return gpu.L1T.SizeBits()
	case sim.StructL2:
		return gpu.L2.SizeBits()
	case sim.StructL1C:
		if gpu.L1C == nil {
			return 0
		}
		return gpu.L1C.SizeBits()
	case sim.StructL1I:
		if gpu.L1I == nil {
			return 0
		}
		return gpu.L1I.SizeBits()
	}
	return 0
}

// ChipSizeBits returns the chip-wide size of a structure (the Size_i of
// equation (2); Table I of the paper). StructL1C is reported for the
// extension campaigns even though the paper's chip AVF excludes it.
func ChipSizeBits(gpu *config.GPU, st sim.Structure) int64 {
	switch st {
	case sim.StructRegFile:
		return gpu.RegFileBits()
	case sim.StructShared:
		return gpu.SmemBits()
	case sim.StructL1D:
		return gpu.L1DBits()
	case sim.StructL1T:
		return gpu.L1TBits()
	case sim.StructL2:
		return gpu.L2Bits()
	case sim.StructL1C:
		return gpu.L1CBits()
	case sim.StructL1I:
		return gpu.L1IBits()
	}
	return 0 // local memory is off-chip; it has no on-chip AVF share
}

// MaskGen is the fault-mask generator: it deterministically derives each
// experiment's FaultSpec from the campaign seed and the experiment index.
// Not safe for concurrent use: Spec re-seeds one generator per call.
type MaskGen struct {
	windows  []sim.CycleWindow
	total    int64 // summed width of windows
	sizeBits int64
	bits     int
	warpWide bool
	blocks   int
	coreMask []int
	st       sim.Structure
	seed     int64
	rng      *rand.Rand // over a lazyrand.Source; re-seeded by every Spec call
}

// NewMaskGen builds a generator for one campaign point.
//
// windows are the target kernel's invocation windows (injection cycles are
// drawn uniformly over their union, which is how the paper handles all
// invocations of a static kernel together); sizeBits is the structure's
// injectable bit-space; bits is the fault multiplicity (1 = single-bit,
// 3 = triple-bit, any cardinality is supported).
func NewMaskGen(st sim.Structure, windows []sim.CycleWindow, sizeBits int64, bits int, seed int64) (*MaskGen, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("core: no cycle windows for injection")
	}
	if sizeBits <= 0 {
		return nil, fmt.Errorf("core: structure %s has no injectable bits", st)
	}
	if bits <= 0 {
		return nil, fmt.Errorf("core: fault multiplicity %d not positive", bits)
	}
	if int64(bits) > sizeBits {
		return nil, fmt.Errorf("core: %d fault bits exceed structure size %d", bits, sizeBits)
	}
	total := uint64(0)
	for _, w := range windows {
		if w.End <= w.Start {
			return nil, fmt.Errorf("core: empty cycle window [%d,%d)", w.Start, w.End)
		}
		total += w.Width()
	}
	if total == 0 {
		return nil, fmt.Errorf("core: zero total cycles")
	}
	return &MaskGen{windows: windows, total: int64(total), sizeBits: sizeBits, bits: bits, st: st, seed: seed,
		rng: rand.New(lazyrand.New(seed))}, nil
}

// SetWarpWide makes register-file/local specs target whole warps.
func (m *MaskGen) SetWarpWide(v bool) { m.warpWide = v }

// SetBlocks sets the CTA count for shared-memory specs.
func (m *MaskGen) SetBlocks(n int) { m.blocks = n }

// SetCoreMask restricts L1 specs to the given cores (the kernel's cores).
func (m *MaskGen) SetCoreMask(cores []int) { m.coreMask = cores }

// Spec derives the FaultSpec for experiment i.
func (m *MaskGen) Spec(i int) *sim.FaultSpec {
	mix := uint64(m.seed) ^ uint64(i+1)*0x9E3779B97F4A7C15 // golden-ratio mix
	// The draws equal those of a fresh rand.New(rand.NewSource(mix)); the
	// lazy source computes only the state words they read, so a spec costs
	// its three to five draws however many specs a campaign derives.
	r := m.rng
	r.Seed(int64(mix))
	// Cycle: uniform over the union of windows.
	pick := uint64(r.Int63n(m.total))
	var cycle uint64
	for _, w := range m.windows {
		if pick < w.Width() {
			cycle = w.Start + pick + 1 // injections fire entering this cycle
			break
		}
		pick -= w.Width()
	}
	// Bit positions: distinct, uniform over the structure space.
	positions := make([]int64, 0, m.bits)
	for len(positions) < m.bits {
		// A scan, not a set: multiplicity is 1-3.
		if p := r.Int63n(m.sizeBits); !slices.Contains(positions, p) {
			positions = append(positions, p)
		}
	}
	return &sim.FaultSpec{
		Structure:    m.st,
		Cycle:        cycle,
		BitPositions: positions,
		WarpWide:     m.warpWide,
		Blocks:       m.blocks,
		CoreMask:     append([]int(nil), m.coreMask...),
		Seed:         r.Int63(),
	}
}

// SampleSize implements the statistical fault-injection sample-size
// formula of Leveugle et al. (DATE 2009), which the paper uses to justify
// ~3,000 injections per campaign: with population N (bits x cycles), error
// margin e, and the normal quantile t for the chosen confidence,
//
//	n = N / (1 + e^2 (N-1) / (t^2 p (1-p)))     with p = 0.5.
func SampleSize(population float64, confidence, margin float64) int {
	if population <= 0 {
		return 0
	}
	return plan.SampleSize(population, confidence, margin)
}
