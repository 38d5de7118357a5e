package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format mirrors gpgpusim.config: one "-key value" pair per line,
// '#' comments. Cache geometries use "sets:ways:line_bytes:hit_cycles" or
// "none".
//
// The paper's gpuFI-4 passes both architecture and injection parameters
// through this file; architecture parameters live here, injection
// parameters are serialized by package core.

// Marshal renders the configuration in the text format.
func (g *GPU) Marshal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# gpuFI-4 GPU configuration: %s (%dnm)\n", g.Name, g.ProcessNm)
	fmt.Fprintf(&b, "-name %s\n", g.Name)
	fmt.Fprintf(&b, "-sms %d\n", g.SMs)
	fmt.Fprintf(&b, "-warp_size %d\n", g.WarpSize)
	fmt.Fprintf(&b, "-max_threads_per_sm %d\n", g.MaxThreadsPerSM)
	fmt.Fprintf(&b, "-max_ctas_per_sm %d\n", g.MaxCTAsPerSM)
	fmt.Fprintf(&b, "-registers_per_sm %d\n", g.RegistersPerSM)
	fmt.Fprintf(&b, "-smem_per_sm %d\n", g.SmemPerSM)
	fmt.Fprintf(&b, "-l1d %s\n", marshalCache(g.L1D))
	fmt.Fprintf(&b, "-l1t %s\n", marshalCache(g.L1T))
	fmt.Fprintf(&b, "-l1i %s\n", marshalCache(g.L1I))
	fmt.Fprintf(&b, "-l1c %s\n", marshalCache(g.L1C))
	fmt.Fprintf(&b, "-l2 %s\n", marshalCache(g.L2))
	fmt.Fprintf(&b, "-l2_banks %d\n", g.L2Banks)
	fmt.Fprintf(&b, "-alu_lat %d\n", g.ALULatency)
	fmt.Fprintf(&b, "-sfu_lat %d\n", g.SFULatency)
	fmt.Fprintf(&b, "-smem_lat %d\n", g.SmemLatency)
	fmt.Fprintf(&b, "-dram_lat %d\n", g.DRAMLatency)
	fmt.Fprintf(&b, "-issue_per_cycle %d\n", g.IssuePerCycle)
	fmt.Fprintf(&b, "-ecc %t\n", g.ECC)
	fmt.Fprintf(&b, "-lenient_memory %t\n", g.LenientMemory)
	if g.L2QueueCycles != 0 {
		fmt.Fprintf(&b, "-l2_queue_cycles %d\n", g.L2QueueCycles)
	}
	fmt.Fprintf(&b, "-process_nm %d\n", g.ProcessNm)
	fmt.Fprintf(&b, "-raw_fit_per_bit %g\n", g.RawFITPerBit)
	return b.String()
}

func marshalCache(c *Cache) string {
	if c == nil {
		return "none"
	}
	return fmt.Sprintf("%d:%d:%d:%d", c.Sets, c.Ways, c.LineBytes, c.HitCycles)
}

func parseCache(s string) (*Cache, error) {
	if s == "none" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("config: cache spec %q not sets:ways:line_bytes:hit_cycles", s)
	}
	var vals [4]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("config: cache spec %q: %v", s, err)
		}
		vals[i] = v
	}
	return &Cache{Sets: vals[0], Ways: vals[1], LineBytes: vals[2], HitCycles: vals[3]}, nil
}

// Parse reads a configuration in the text format and validates it.
func Parse(r io.Reader) (*GPU, error) {
	g := &GPU{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.HasPrefix(fields[0], "-") {
			return nil, fmt.Errorf("config: line %d: expected \"-key value\", got %q", lineNo, line)
		}
		key, val := fields[0][1:], fields[1]
		if err := g.set(key, val); err != nil {
			return nil, fmt.Errorf("config: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("config: read: %v", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *GPU) set(key, val string) error {
	intVal := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("%s: %v", key, err)
		}
		*dst = v
		return nil
	}
	cacheVal := func(dst **Cache) error {
		c, err := parseCache(val)
		if err != nil {
			return err
		}
		*dst = c
		return nil
	}
	switch key {
	case "name":
		g.Name = val
		return nil
	case "sms":
		return intVal(&g.SMs)
	case "warp_size":
		return intVal(&g.WarpSize)
	case "max_threads_per_sm":
		return intVal(&g.MaxThreadsPerSM)
	case "max_ctas_per_sm":
		return intVal(&g.MaxCTAsPerSM)
	case "registers_per_sm":
		return intVal(&g.RegistersPerSM)
	case "smem_per_sm":
		return intVal(&g.SmemPerSM)
	case "l1d":
		return cacheVal(&g.L1D)
	case "l1t":
		return cacheVal(&g.L1T)
	case "l1i":
		return cacheVal(&g.L1I)
	case "l1c":
		return cacheVal(&g.L1C)
	case "l2":
		return cacheVal(&g.L2)
	case "l2_banks":
		return intVal(&g.L2Banks)
	case "alu_lat":
		return intVal(&g.ALULatency)
	case "sfu_lat":
		return intVal(&g.SFULatency)
	case "smem_lat":
		return intVal(&g.SmemLatency)
	case "dram_lat":
		return intVal(&g.DRAMLatency)
	case "issue_per_cycle":
		return intVal(&g.IssuePerCycle)
	case "ecc":
		v, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("ecc: %v", err)
		}
		g.ECC = v
		return nil
	case "l2_queue_cycles":
		return intVal(&g.L2QueueCycles)
	case "lenient_memory":
		v, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("lenient_memory: %v", err)
		}
		g.LenientMemory = v
		return nil
	case "process_nm":
		return intVal(&g.ProcessNm)
	case "raw_fit_per_bit":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("raw_fit_per_bit: %v", err)
		}
		g.RawFITPerBit = v
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}
