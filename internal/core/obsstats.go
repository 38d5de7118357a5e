package core

import (
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// The engine's instruments: each is the one count of what it measures, and
// EngineStats reads them back beside the simulator's. The three phase
// histograms are the one per-experiment timing (phaseNS.phase); a traced
// run's engine.cluster span carries the same durations summed over its
// cluster. They observe host time only and never touch simulated state, so
// campaign outcomes are unaffected by their presence. The sandbox's
// counters are in sandbox.go.
var (
	forkHist = obs.Default().Histogram("gpufi_engine_fork_seconds",
		"Wall-clock seconds preparing the fork vessel of one experiment.", nil)
	executeHist = obs.Default().Histogram("gpufi_engine_execute_seconds",
		"Wall-clock seconds executing one faulty run.", nil)
	classifyHist = obs.Default().Histogram("gpufi_engine_classify_seconds",
		"Wall-clock seconds classifying one experiment's outcome.", nil)
	expHist = obs.Default().Histogram("gpufi_experiment_seconds",
		"Wall-clock seconds per sandboxed injection experiment.", nil)
	// A worker's wait for its next experiment's cluster to be published,
	// observed only when it blocks: the idle time the pipeline leaves.
	awaitHist = obs.Default().Histogram("gpufi_engine_await_seconds",
		"Wall-clock seconds a worker blocked waiting for the snapshot of its next experiment's cluster.", nil)

	forksReused = obs.Default().Counter("gpufi_forks_reused",
		"Experiments that ran on a fork vessel already holding the previous experiment's state.")

	// Fault-free prefix runs an engine session started from cycle 0, and
	// runs that continued the prefix the session's previous run had parked.
	prefixesStarted = obs.Default().Counter("gpufi_prefixes_started",
		"Fault-free prefix runs started from cycle 0 by an engine run.")
	prefixesContinued = obs.Default().Counter("gpufi_prefixes_continued",
		"Engine runs that continued the fault-free prefix their session's previous run had parked.")

	// Experiments the device ended early because the rest of the run was
	// provably the golden run, by sim.StopReason, and the cycles of golden
	// suffix they did not simulate.
	earlyStops = [...]*obs.Counter{
		sim.StopInert: obs.Default().Counter("gpufi_early_stops_inert",
			"Experiments ended at their injection cycle: no armed fault changed simulated state, so the run was the golden run."),
		sim.StopOverwritten: obs.Default().Counter("gpufi_early_stops_overwritten",
			"Experiments ended when the last corrupted register or shared-memory cell was overwritten before any read."),
		sim.StopRetired: obs.Default().Counter("gpufi_early_stops_retired",
			"Experiments ended when the last corrupted cell went unread with its exiting lane or retiring CTA."),
		sim.StopDead: obs.Default().Counter("gpufi_early_stops_dead",
			"Experiments ended in their injection cycle: every corrupted register was dead, by the kernel's control-flow graph, where its lane stood."),
	}
	suffixCyclesSkipped = obs.Default().Counter("gpufi_suffix_cycles_skipped",
		"Simulated cycles of golden-run suffix that early-stopped experiments did not execute.")
)

func init() {
	obs.Default().GaugeFunc("gpufi_fork_reuse_ratio", "Share of experiments whose fork vessel was reused rather than built.",
		func() float64 {
			reused, created := forksReused.Load(), sim.PoolStats().VesselsBuilt
			if reused+created == 0 {
				return 0
			}
			return float64(reused) / float64(reused+created)
		})
}

// EngineCounters are the process-wide fork-engine and phase counters
// surfaced on gpufi-serve's /metrics.
type EngineCounters struct {
	ForksCreated     int64 // fork vessels built from nothing (no parked device of their shape)
	ForksReused      int64 // fork vessels restored in place
	VesselsDiscarded int64 // poisoned vessels dropped by the engine
	DevicesBuilt     int64 // devices of any role built from nothing
	DevicesParked    int64 // devices parked in the pool right now (a gauge)

	PrefixesStarted   int64 // fault-free prefix runs started from cycle 0
	PrefixesContinued int64 // engine runs that continued their session's parked prefix

	SnapshotCaptures     int64 // snapshots taken by prefix runs
	SnapshotCaptureNanos int64
	SnapshotRestores     int64 // fork restores from snapshots
	SnapshotRestoreNanos int64
	RestoresChained      int64 // restores skipped: the vessel had stopped on the fault-free run inside the snapshot's launch and carried on from there

	ForkNanos     int64
	ExecuteNanos  int64
	ClassifyNanos int64

	// Experiments ended the moment the rest of the run was provably the
	// golden run (sim.StopWhenGolden), by the rule that proved it, and the
	// simulated cycles that saved.
	EarlyStopsInert       int64 // no armed fault changed simulated state
	EarlyStopsOverwritten int64 // the last corrupted cell was overwritten unread
	EarlyStopsRetired     int64 // the last corrupted cell went unread with its lane or CTA
	EarlyStopsDead        int64 // every corrupted register was dead where its lane stood: stopped in the injection cycle
	SuffixCyclesSkipped   int64

	// Copy-on-write fork protocol counters (internal/sim): how much state
	// the delta syncs actually moved versus a deep clone, and how much
	// resident state forks shared with their snapshots.
	COWRestores         int64 // vessel restores through the COW protocol
	COWFullRestores     int64 // restores that fell back to a full copy
	COWCaptures         int64 // snapshot recaptures through the COW protocol
	COWFullCaptures     int64 // recaptures that fell back to a full copy
	COWPagesCopied      int64 // pages + cache lines copied by syncs
	COWPagesShared      int64 // pages + cache lines left shared
	COWBytesCopied      int64
	COWBytesAvoided     int64   // bytes a deep clone would have moved
	COWDirtyRatio       float64 // BytesCopied / (BytesCopied + BytesAvoided)
	WarpsShared         int64   // fork warps restored as shared COW slabs
	WarpsMaterialized   int64   // slabs privatized on first write
	SmemMaterialized    int64   // shared-memory banks privatized
	ResidentBytesCopied int64
}

// EngineStats returns the process-wide fork-engine counters and phase
// timers (fork vessel churn, snapshot capture/restore, execute/classify).
func EngineStats() EngineCounters {
	st := sim.SnapshotTimings()
	cow := sim.COWStats()
	devs := sim.PoolStats()
	return EngineCounters{
		ForksCreated:          devs.VesselsBuilt,
		ForksReused:           forksReused.Load(),
		VesselsDiscarded:      vesselsDiscarded.Load(),
		DevicesBuilt:          devs.DevicesBuilt,
		DevicesParked:         devs.DevicesParked,
		PrefixesStarted:       prefixesStarted.Load(),
		PrefixesContinued:     prefixesContinued.Load(),
		SnapshotCaptures:      st.Captures,
		SnapshotCaptureNanos:  st.CaptureNanos,
		SnapshotRestores:      st.Restores,
		SnapshotRestoreNanos:  st.RestoreNanos,
		RestoresChained:       st.Chained,
		ForkNanos:             int64(forkHist.Sum() * 1e9),
		ExecuteNanos:          int64(executeHist.Sum() * 1e9),
		ClassifyNanos:         int64(classifyHist.Sum() * 1e9),
		EarlyStopsInert:       earlyStops[sim.StopInert].Load(),
		EarlyStopsOverwritten: earlyStops[sim.StopOverwritten].Load(),
		EarlyStopsRetired:     earlyStops[sim.StopRetired].Load(),
		EarlyStopsDead:        earlyStops[sim.StopDead].Load(),
		SuffixCyclesSkipped:   suffixCyclesSkipped.Load(),
		COWRestores:           cow.Restores,
		COWFullRestores:       cow.FullRestores,
		COWCaptures:           cow.Captures,
		COWFullCaptures:       cow.FullCaptures,
		COWPagesCopied:        cow.UnitsCopied,
		COWPagesShared:        cow.UnitsShared,
		COWBytesCopied:        cow.BytesCopied,
		COWBytesAvoided:       cow.BytesAvoided,
		COWDirtyRatio:         cow.DirtyRatio(),
		WarpsShared:           cow.WarpsShared,
		WarpsMaterialized:     cow.WarpsMaterialized,
		SmemMaterialized:      cow.SmemMaterialized,
		ResidentBytesCopied:   cow.ResidentBytesCopied,
	}
}
