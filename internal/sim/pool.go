package sim

import (
	"sync"
	"sync/atomic"

	"gpufi/internal/cache"
	"gpufi/internal/config"
	"gpufi/internal/mem"
	"gpufi/internal/obs"
)

// The device pool. A campaign needs workers+3 devices — the prefix run, two
// snapshot templates (one when it has a single cluster) and one fork vessel
// per worker — and an evaluation runs
// dozens of campaigns, each a few hundred experiments long. Building those
// devices (tens of megabytes of zeroed line tables and arenas each) and
// filling them line by line used to cost more than a fifth of such a
// campaign. So devices are borrowed: when a campaign or a profile ends, the
// storage of its devices is parked here and the next one of the same shape
// takes it instead of allocating.
//
// What parks is storage, never a *GPU. Release takes the storage out of the
// device and nils the device's pointers to it; a borrower gets a new GPU
// struct around it. No scalar of the old device (cycle, statistics, fault
// RNG, tracer, context, cycle limit, deep-clone flag) can reach the new one,
// and what the old device handed out that aliases its struct — a Profile's
// kernel statistics are the device's own map — stays valid.
//
// Parked storage keeps its last owner's contents; only what tied it to that
// owner is dropped (park). The two kinds of borrower deal with the contents
// themselves: a device that will run an application from its first host
// call empties the storage (storage.reset, cost: the lines that were
// resident); a snapshot template or fork vessel is about to be made a copy
// of a source, and the sync path overwrites whatever is there at the cost of
// what is resident on either side (cache.CopyFrom).
//
// The bound needs no knob. Only a device that was in use is parked, and a
// borrower takes parked storage before it builds any, so for each shape
// parked + in use never exceeds the most devices of that shape that were
// ever in use at once: workers+3 per campaign running concurrently. The
// pool cannot make the process hold more than it already held at its peak.

// storage is what a device is made of once every scalar is taken away: the
// memory image, the L2, and the cores with their L1s and resident-state
// arenas. It is the unit the pool parks.
type storage struct {
	shape    shape
	mem      *mem.Memory
	dram     *dramBacking
	l2       *cache.Cache
	cores    []*core
	bankFree []uint64 // per-L2-bank busy-until cycle (L2QueueCycles > 0)
}

// shape is the pool key: the part of a configuration that decides how
// storage is laid out, by value. Presets return a new *config.GPU on every
// call, so a pointer would never match across campaigns, and everything
// else in a configuration (ECC, lenient memory, latencies, the scheduler,
// per-SM limits) is read through the device's cfg at run time and costs no
// storage. An absent cache is the zero geometry.
type shape struct {
	sms, l2Banks           int
	l2, l1d, l1t, l1c, l1i config.Cache
}

func shapeOf(cfg *config.GPU) shape {
	geom := func(c *config.Cache) config.Cache {
		if c == nil {
			return config.Cache{}
		}
		return *c
	}
	return shape{
		sms: cfg.SMs, l2Banks: cfg.L2Banks,
		l2: geom(cfg.L2), l1d: geom(cfg.L1D), l1t: geom(cfg.L1T), l1c: geom(cfg.L1C), l1i: geom(cfg.L1I),
	}
}

// newStorage allocates empty storage for cfg: the only place a device is
// built from nothing.
func newStorage(cfg *config.GPU) storage {
	devicesBuilt.Inc()
	s := storage{
		shape:    shapeOf(cfg),
		mem:      mem.New(),
		cores:    make([]*core, cfg.SMs),
		bankFree: make([]uint64, cfg.L2Banks),
	}
	s.dram = &dramBacking{mem: s.mem, latency: cfg.DRAMLatency}
	s.l2 = cache.New(cfg.L2, s.dram)
	for i := range s.cores {
		s.cores[i] = newCore(cfg, s.l2, i)
	}
	return s
}

// fits reports whether the storage is whole and laid out for cfg. A fork
// shell has none yet, a test may have scribbled on a vessel's, and a vessel
// may be handed a snapshot of another model; all three get other storage.
func (s *storage) fits(cfg *config.GPU) bool {
	if s.mem == nil || s.dram == nil || s.l2 == nil || len(s.cores) == 0 || s.shape != shapeOf(cfg) {
		return false
	}
	for _, c := range s.cores {
		if c == nil {
			return false
		}
	}
	return true
}

// reset empties the storage for a device that starts from nothing: no
// allocations, no resident lines, zero statistics. The result cannot be
// told from newStorage(cfg); the cost is what was resident.
func (s *storage) reset(cfg *config.GPU) {
	s.mem.Reset()
	s.dram.mem, s.dram.latency = s.mem, cfg.DRAMLatency
	s.l2.Reset(s.dram)
	clear(s.bankFree)
	for _, c := range s.cores {
		c.reset()
		for _, l1 := range c.l1s() {
			if l1 != nil {
				l1.Reset(s.l2)
			}
		}
	}
}

// park cuts every tie between the storage and the campaign that used it.
// The memory image and the caches forget which image or cache they mirrored
// and what they tracked since — a parked vessel would otherwise keep its
// snapshot template reachable, and a parked template the prefix device's
// memory — and the cores drop their resident state, their device pointer
// and whatever their arenas still alias in a snapshot.
func (s *storage) park() {
	s.mem.Detach()
	s.l2.Detach()
	for _, c := range s.cores {
		c.reset()
		c.gpu = nil
		if c.pool != nil {
			c.pool.scrub()
		}
		for _, l1 := range c.l1s() {
			if l1 != nil {
				l1.Detach()
			}
		}
	}
}

// devicePool is the process-wide store of parked storage, by shape.
type devicePool struct {
	mu     sync.Mutex
	parked map[shape][]storage
}

var pool = devicePool{parked: make(map[shape][]storage)}

// Device-pool accounting. Pure observers, like the snapshot timers.
var (
	devicesBuilt = obs.Default().Counter("gpufi_devices_built_total",
		"Simulated devices whose storage (memory image, cache line tables and arenas, cores) was allocated from nothing instead of taken from the device pool.")
	devicesParked = obs.Default().Gauge("gpufi_devices_parked",
		"Devices whose storage is parked in the pool, waiting for the next campaign of their shape.")

	vesselsBuilt atomic.Int64 // devices built for a fork vessel's first restore
)

// take returns parked storage of cfg's shape if there is any, else newly
// built storage. used reports the former: the storage still holds its last
// owner's memory image and cache contents.
func (p *devicePool) take(cfg *config.GPU) (s storage, used bool) {
	k := shapeOf(cfg)
	p.mu.Lock()
	if l := p.parked[k]; len(l) > 0 {
		s, used = l[len(l)-1], true
		l[len(l)-1] = storage{}
		p.parked[k] = l[:len(l)-1]
	}
	p.mu.Unlock()
	if !used {
		return newStorage(cfg), false
	}
	devicesParked.Add(-1)
	return s, true
}

func (p *devicePool) put(s storage) {
	s.park()
	p.mu.Lock()
	p.parked[s.shape] = append(p.parked[s.shape], s)
	p.mu.Unlock()
	devicesParked.Add(1)
}

// Borrow returns a device for cfg that is indistinguishable from New(cfg)
// but built on pooled storage when the pool holds some of cfg's shape. The
// caller owns it until Release.
func Borrow(cfg *config.GPU) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, used := pool.take(cfg)
	if used {
		s.reset(cfg)
	}
	g := &GPU{cfg: cfg, kernels: make(map[string]*KernelStats)}
	g.adopt(s)
	return g, nil
}

// Release ends the device's life and parks its storage, and that of every
// snapshot template it holds for recycling, for the next borrower. The
// device must not be used afterwards; what it returned earlier (kernel
// statistics, launch results, injection records) stays valid, because only
// the storage leaves it. A device on the deep-clone protocol is the
// differential baseline and never feeds the pool, and a fork shell that
// never restored has nothing to park.
func (g *GPU) Release() {
	for _, d := range append(g.snapScratch, g) {
		s := d.storage
		d.storage = storage{}
		if !g.deepClone && s.fits(d.cfg) {
			pool.put(s)
		}
	}
	g.snapScratch = nil
}

// adopt makes s the device's storage and points its cores back at g.
func (g *GPU) adopt(s storage) {
	g.storage = s
	for _, c := range g.cores {
		c.gpu = g
	}
}

// PoolCounters are the process-wide device-pool counters.
type PoolCounters struct {
	DevicesBuilt  int64 // devices whose storage was allocated from nothing
	VesselsBuilt  int64 // of those, fork vessels at their first restore
	DevicesParked int64 // devices parked right now (a gauge)
}

// PoolStats returns the process-wide device-pool counters.
func PoolStats() PoolCounters {
	return PoolCounters{
		DevicesBuilt:  devicesBuilt.Load(),
		VesselsBuilt:  vesselsBuilt.Load(),
		DevicesParked: devicesParked.Load(),
	}
}

// DrainPool drops all parked storage and returns how many devices that was.
// Tests use it to run a campaign on storage that has never been used.
func DrainPool() int {
	pool.mu.Lock()
	n := 0
	for _, l := range pool.parked {
		n += len(l)
	}
	clear(pool.parked)
	pool.mu.Unlock()
	devicesParked.Add(int64(-n))
	return n
}
