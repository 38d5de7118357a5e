package sim

import (
	"sync/atomic"
	"time"

	"gpufi/internal/obs"
)

// Wall-clock phase accounting for the snapshot machinery. The timers only
// observe host time around capture/restore — they never read or write
// simulated state, so outcomes stay bit-identical with or without anyone
// scraping them.
var (
	snapCaptures     atomic.Int64
	snapCaptureNanos atomic.Int64
	snapRestores     atomic.Int64
	snapRestoreNanos atomic.Int64
	snapChained      atomic.Int64 // launches a fork resumed from the state it held, with no restore
	forkCycles       atomic.Int64 // cycles simulated by devices running from a snapshot

	captureHist = obs.Default().Histogram("gpufi_snapshot_capture_seconds",
		"Wall-clock seconds to capture one simulator snapshot.", nil)
	restoreHist = obs.Default().Histogram("gpufi_snapshot_restore_seconds",
		"Wall-clock seconds to restore a fork from a snapshot.", nil)
)

// SnapshotStats are process-wide snapshot phase counters.
type SnapshotStats struct {
	Captures     int64
	CaptureNanos int64
	Restores     int64
	RestoreNanos int64
	Chained      int64 // restores a fork skipped: it already held the fault-free state (Refork)
	ForkCycles   int64 // simulated cycles devices restored from a snapshot have run since
}

// SnapshotTimings returns the process-wide snapshot phase counters.
func SnapshotTimings() SnapshotStats {
	return SnapshotStats{
		Captures:     snapCaptures.Load(),
		CaptureNanos: snapCaptureNanos.Load(),
		Restores:     snapRestores.Load(),
		RestoreNanos: snapRestoreNanos.Load(),
		Chained:      snapChained.Load(),
		ForkCycles:   forkCycles.Load(),
	}
}

func observeCapture(d time.Duration) {
	snapCaptures.Add(1)
	snapCaptureNanos.Add(d.Nanoseconds())
	captureHist.Observe(d.Seconds())
}

func observeRestore(d time.Duration) {
	snapRestores.Add(1)
	snapRestoreNanos.Add(d.Nanoseconds())
	restoreHist.Observe(d.Seconds())
}

// Copy-on-write fork accounting: how much state the delta sync protocol
// actually moved versus what a deep clone would have, plus resident-state
// (lane state / shared memory) materialization counts. Pure observers —
// reading them never perturbs simulated state.
var (
	cowRestores     atomic.Int64
	cowFullRestores atomic.Int64
	cowCaptures     atomic.Int64
	cowFullCaptures atomic.Int64
	cowUnitsCopied  atomic.Int64 // pages + cache lines copied by delta syncs
	cowUnitsTotal   atomic.Int64 // pages + cache lines a deep clone would copy
	cowBytesCopied  atomic.Int64
	cowBytesTotal   atomic.Int64

	cowWarpsShared         atomic.Int64 // fork warps restored as shared slabs
	cowWarpsMaterialized   atomic.Int64 // shared slabs privatized on first write
	cowSmemMaterialized    atomic.Int64 // shared-memory banks privatized
	cowResidentBytesCopied atomic.Int64

	cowBytesCopiedCtr = obs.Default().Counter("gpufi_cow_bytes_copied_total",
		"Bytes actually copied by COW fork restores and snapshot recaptures.")
	cowBytesAvoidedCtr = obs.Default().Counter("gpufi_cow_bytes_avoided_total",
		"Bytes a deep clone would have copied that the COW delta sync skipped.")
	cowDeltaSyncsCtr = obs.Default().Counter("gpufi_cow_delta_syncs_total",
		"Fork restores and snapshot recaptures served by the delta fast path.")
	cowFullSyncsCtr = obs.Default().Counter("gpufi_cow_full_syncs_total",
		"Fork restores and snapshot recaptures that fell back to a full copy.")
	cowMaterializeCtr = obs.Default().Counter("gpufi_cow_materializations_total",
		"Thread slabs and shared-memory banks privatized on first write.")
)

// COWCounters are the process-wide copy-on-write fork counters.
type COWCounters struct {
	Restores     int64 // vessel restores through the COW protocol
	FullRestores int64 // restores that fell back to a full copy
	Captures     int64 // snapshot recaptures through the COW protocol
	FullCaptures int64 // recaptures that fell back to a full copy

	UnitsCopied  int64 // pages + cache lines copied
	UnitsShared  int64 // pages + cache lines left shared (not copied)
	BytesCopied  int64
	BytesAvoided int64

	WarpsShared         int64 // fork warps restored as shared (COW) slabs
	WarpsMaterialized   int64 // slabs privatized on first write
	SmemMaterialized    int64 // shared-memory banks privatized on first write
	ResidentBytesCopied int64
}

// DirtyRatio is the fraction of deep-clone bytes the delta syncs actually
// moved (0 when nothing has synced yet; 1 means no sharing happened).
func (c COWCounters) DirtyRatio() float64 {
	total := c.BytesCopied + c.BytesAvoided
	if total == 0 {
		return 0
	}
	return float64(c.BytesCopied) / float64(total)
}

// COWStats returns the process-wide copy-on-write fork counters.
func COWStats() COWCounters {
	return COWCounters{
		Restores:            cowRestores.Load(),
		FullRestores:        cowFullRestores.Load(),
		Captures:            cowCaptures.Load(),
		FullCaptures:        cowFullCaptures.Load(),
		UnitsCopied:         cowUnitsCopied.Load(),
		UnitsShared:         cowUnitsTotal.Load() - cowUnitsCopied.Load(),
		BytesCopied:         cowBytesCopied.Load(),
		BytesAvoided:        cowBytesTotal.Load() - cowBytesCopied.Load(),
		WarpsShared:         cowWarpsShared.Load(),
		WarpsMaterialized:   cowWarpsMaterialized.Load(),
		SmemMaterialized:    cowSmemMaterialized.Load(),
		ResidentBytesCopied: cowResidentBytesCopied.Load(),
	}
}

func observeCOWSync(a *cowAgg, ops, fullOps *atomic.Int64) {
	ops.Add(1)
	if a.full {
		fullOps.Add(1)
		cowFullSyncsCtr.Inc()
	} else {
		cowDeltaSyncsCtr.Inc()
	}
	cowUnitsCopied.Add(a.unitsCopied)
	cowUnitsTotal.Add(a.unitsTotal)
	cowBytesCopied.Add(a.bytesCopied)
	cowBytesTotal.Add(a.bytesTotal)
	cowBytesCopiedCtr.Add(a.bytesCopied)
	if avoided := a.bytesTotal - a.bytesCopied; avoided > 0 {
		cowBytesAvoidedCtr.Add(avoided)
	}
}
