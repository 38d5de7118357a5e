// Package config defines GPU model configurations: the microarchitectural
// parameters of Table V of the paper (per-SM limits, register file, shared
// memory, cache geometries) and the technology parameters used for FIT
// estimation. Presets are provided for the paper's three cards — RTX 2060
// (Turing), Quadro GV100 (Volta), and GTX Titan (Kepler) — plus a parser
// and serializer for a gpgpusim.config-style text format.
package config

import (
	"fmt"
	"math"
)

// TagBits is the abstract per-line tag size modeled for every cache, as in
// the paper ("the tag length that we were able to include consists of 57
// bits"). Cache sizes reported for Table I include these bits.
const TagBits = 57

// RegBytes is the size of one architectural register.
const RegBytes = 4

// Cache describes one cache's geometry and access latency.
type Cache struct {
	Sets      int // number of sets (power of two)
	Ways      int // associativity
	LineBytes int // line size in bytes (power of two)
	HitCycles int // access latency on hit
}

// Lines returns the total number of cache lines.
func (c *Cache) Lines() int { return c.Sets * c.Ways }

// DataBytes returns the data capacity in bytes.
func (c *Cache) DataBytes() int { return c.Lines() * c.LineBytes }

// SizeBits returns the injectable size in bits: data plus the abstract
// 57-bit tag per line (the paper's Table I/V sizes marked with *).
func (c *Cache) SizeBits() int64 {
	return int64(c.Lines()) * (int64(c.LineBytes)*8 + TagBits)
}

// LineBits is the injectable size of one line: tag bits followed by data
// bits. Bit indices [0,TagBits) address the tag; [TagBits, LineBits) the
// data, matching the paper's abstract view of a cache row ("as if there
// were tag bits before the data bits").
func (c *Cache) LineBits() int { return TagBits + c.LineBytes*8 }

func (c *Cache) validate(name string) error {
	if c == nil {
		return nil
	}
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("config: %s sets %d not a positive power of two", name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("config: %s ways %d not positive", name, c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("config: %s line size %d not a positive power of two", name, c.LineBytes)
	}
	if c.HitCycles <= 0 {
		return fmt.Errorf("config: %s hit latency %d not positive", name, c.HitCycles)
	}
	return nil
}

// GPU is a full GPU model configuration.
type GPU struct {
	Name string

	// SIMT core cluster parameters (Table V).
	SMs             int // number of streaming multiprocessors
	WarpSize        int // threads per warp (32 on all Nvidia parts)
	MaxThreadsPerSM int
	MaxCTAsPerSM    int
	RegistersPerSM  int // 32-bit registers per SM register file
	SmemPerSM       int // shared memory bytes per SM

	// Per-SM L1 caches. L1D may be nil (GTX Titan has no L1 data cache for
	// global accesses). L1I and L1C are modeled for capacity accounting
	// (Table I) but are not injection targets, exactly as in the paper.
	L1D *Cache
	L1T *Cache
	L1I *Cache
	L1C *Cache

	// Device-wide L2, physically split into banks; the injector addresses
	// it as one entity whose first N lines belong to bank 0, and so on.
	L2      *Cache
	L2Banks int

	// Pipeline and memory latencies (cycles). Cache access latencies live
	// in each Cache's HitCycles; an L1 miss pays the L2 HitCycles on top,
	// and an L2 miss additionally pays DRAMLatency.
	ALULatency  int
	SFULatency  int
	SmemLatency int
	DRAMLatency int

	// IssuePerCycle is the number of warp instructions each SM can issue
	// per cycle (number of warp schedulers).
	IssuePerCycle int

	// L2QueueCycles enables bank-contention modeling at the L2: each line
	// request occupies its bank for this many cycles, and requests to a
	// busy bank queue behind it. 0 (the default) keeps the pure
	// latency/bandwidth model. Queueing makes the timing sensitive to
	// *which* addresses a (possibly fault-corrupted) kernel touches,
	// raising the share of Performance fault effects toward the paper's
	// contended-ICNT GPGPU-Sim numbers.
	L2QueueCycles int

	// LenientMemory reproduces GPGPU-Sim's lazily allocated functional
	// memory: accesses outside any allocation succeed (reads return
	// zeros, writes scribble into the flat image) instead of raising the
	// address violation a real GPU's MMU would. The paper's near-zero
	// Crash rates stem from this simulator property; with strict memory
	// (the default) part of those faults classify as Crashes instead of
	// SDCs. Misaligned accesses fault in both modes.
	LenientMemory bool

	// ECC enables SEC-DED protection on every injectable storage
	// structure, the protection scheme commercial parts ship with. The
	// paper evaluates an unprotected chip (GPGPU-Sim models no ECC); this
	// extension lets protection trade-offs be quantified: single-bit
	// faults in a protected word are corrected, double-bit faults are
	// detected-uncorrectable (the application aborts), and triple-bit
	// faults escape as silent corruptions.
	ECC bool

	// Technology parameters for FIT estimation.
	ProcessNm    int     // fabrication node
	RawFITPerBit float64 // raw FIT rate of one storage bit
}

// Validate checks internal consistency of the configuration.
func (g *GPU) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("config: empty name")
	}
	pos := func(v int, what string) error {
		if v <= 0 {
			return fmt.Errorf("config: %s: %s must be positive, got %d", g.Name, what, v)
		}
		return nil
	}
	checks := []error{
		pos(g.SMs, "SMs"),
		pos(g.WarpSize, "warp size"),
		pos(g.MaxThreadsPerSM, "max threads per SM"),
		pos(g.MaxCTAsPerSM, "max CTAs per SM"),
		pos(g.RegistersPerSM, "registers per SM"),
		pos(g.SmemPerSM, "shared memory per SM"),
		pos(g.L2Banks, "L2 banks"),
		pos(g.ALULatency, "ALU latency"),
		pos(g.SFULatency, "SFU latency"),
		pos(g.SmemLatency, "shared memory latency"),
		pos(g.DRAMLatency, "DRAM latency"),
		pos(g.IssuePerCycle, "issue width"),
		g.L1D.validate("L1D"),
		g.L1T.validate("L1T"),
		g.L1I.validate("L1I"),
		g.L1C.validate("L1C"),
		g.L2.validate("L2"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if g.WarpSize != 32 {
		return fmt.Errorf("config: %s: warp size %d unsupported (only 32)", g.Name, g.WarpSize)
	}
	if g.MaxThreadsPerSM%g.WarpSize != 0 {
		return fmt.Errorf("config: %s: max threads per SM %d not a multiple of warp size", g.Name, g.MaxThreadsPerSM)
	}
	if g.L2 == nil {
		return fmt.Errorf("config: %s: L2 cache required", g.Name)
	}
	if g.L2.Lines()%g.L2Banks != 0 {
		return fmt.Errorf("config: %s: L2 lines %d not divisible by %d banks", g.Name, g.L2.Lines(), g.L2Banks)
	}
	if g.L1T == nil {
		return fmt.Errorf("config: %s: L1 texture cache required", g.Name)
	}
	if !(g.RawFITPerBit > 0) || math.IsInf(g.RawFITPerBit, 0) {
		return fmt.Errorf("config: %s: raw FIT per bit must be positive and finite", g.Name)
	}
	if g.L2QueueCycles < 0 {
		return fmt.Errorf("config: %s: negative L2 queue cycles", g.Name)
	}
	return nil
}

// MaxWarpsPerSM returns the hardware warp slots per SM.
func (g *GPU) MaxWarpsPerSM() int { return g.MaxThreadsPerSM / g.WarpSize }

// Derived chip-wide structure sizes in bits (the paper's Table I).

// RegFileBits returns the total register file capacity of the chip in bits.
func (g *GPU) RegFileBits() int64 {
	return int64(g.SMs) * int64(g.RegistersPerSM) * RegBytes * 8
}

// SmemBits returns the total shared-memory capacity of the chip in bits.
func (g *GPU) SmemBits() int64 {
	return int64(g.SMs) * int64(g.SmemPerSM) * 8
}

// L1DBits returns the chip-wide L1 data cache size in bits (0 if absent).
func (g *GPU) L1DBits() int64 {
	if g.L1D == nil {
		return 0
	}
	return int64(g.SMs) * g.L1D.SizeBits()
}

// L1TBits returns the chip-wide L1 texture cache size in bits.
func (g *GPU) L1TBits() int64 {
	if g.L1T == nil {
		return 0
	}
	return int64(g.SMs) * g.L1T.SizeBits()
}

// L1IBits returns the chip-wide L1 instruction cache size in bits.
func (g *GPU) L1IBits() int64 {
	if g.L1I == nil {
		return 0
	}
	return int64(g.SMs) * g.L1I.SizeBits()
}

// L1CBits returns the chip-wide L1 constant cache size in bits.
func (g *GPU) L1CBits() int64 {
	if g.L1C == nil {
		return 0
	}
	return int64(g.SMs) * g.L1C.SizeBits()
}

// L2Bits returns the device L2 size in bits.
func (g *GPU) L2Bits() int64 {
	if g.L2 == nil {
		return 0
	}
	return g.L2.SizeBits()
}
