package core

import (
	"sync/atomic"
	"time"

	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// Engine phase timers: cumulative wall-clock nanoseconds per pipeline
// phase, complementing the snapshot capture/restore timers owned by
// internal/sim. They observe host time only and never touch simulated
// state, so campaign outcomes are unaffected by their presence.
var (
	phaseForkNanos     atomic.Int64 // vessel allocation / refork prep
	phaseExecuteNanos  atomic.Int64 // faulty application runs
	phaseClassifyNanos atomic.Int64 // outcome comparison + trace assembly

	// Experiments the device ended early because the rest of the run was
	// provably the golden run, by sim.StopReason, and the cycles of golden
	// suffix they did not simulate.
	earlyStops          [sim.StopDead + 1]atomic.Int64
	suffixCyclesSkipped atomic.Int64

	expHist = obs.Default().Histogram("gpufi_experiment_seconds",
		"Wall-clock seconds per sandboxed injection experiment.", nil)
)

// EngineCounters are the process-wide fork-engine and phase counters
// surfaced on gpufi-serve's /metrics.
type EngineCounters struct {
	ForksCreated     int64 // fork vessels built from nothing (no parked device of their shape)
	ForksReused      int64 // fork vessels restored in place
	VesselsDiscarded int64 // poisoned vessels dropped by the engine
	DevicesBuilt     int64 // devices of any role built from nothing
	DevicesParked    int64 // devices parked in the pool right now (a gauge)

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
		SnapshotCaptures:      st.Captures,
		SnapshotCaptureNanos:  st.CaptureNanos,
		SnapshotRestores:      st.Restores,
		SnapshotRestoreNanos:  st.RestoreNanos,
		RestoresChained:       st.Chained,
		ForkNanos:             phaseForkNanos.Load(),
		ExecuteNanos:          phaseExecuteNanos.Load(),
		ClassifyNanos:         phaseClassifyNanos.Load(),
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

func observeEarlyStop(why sim.StopReason, skipped uint64) {
	earlyStops[why].Add(1)
	suffixCyclesSkipped.Add(int64(skipped))
}

func observePhase(dst *atomic.Int64, start time.Time) {
	dst.Add(time.Since(start).Nanoseconds())
}
