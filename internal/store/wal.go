package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpufi/internal/obs"
)

// The control-plane WAL is the shard coordinator's durability layer: an
// append-only JSONL file (control.jsonl, next to the experiment journal)
// holding exactly what a restarted coordinator replays to rebuild its
// shard table, outstanding leases and lease epochs — shard plans and lease
// grants. The journal stays the single source of truth for WHICH
// experiments are merged.
//
// It is an appendLog like the experiment journal: plan records are
// batched, and AppendSync closes a plan generation and writes every grant
// (a lease epoch handed to a worker must survive the coordinator, or
// fencing breaks); opening it tolerates exactly one torn record at the
// tail, cutting it.
const controlFile = "control.jsonl"

// Control record kinds: the ones replay reads, which are the only ones
// written. Plan records carry a generation: a coordinator that cannot
// trust a partial plan (no plan_done marker for its generation) re-plans
// under the next generation, and stale grants are ignored because shard
// ids embed the generation. Builds up to PR 27 also wrote renew, expire,
// merge, shard_done, retire and finalize records that nothing read; a file
// that carries them still opens and replays, the reader skips them.
const (
	CtlPlan     = "plan"      // one shard of a plan generation: Gen, Shard, Indices
	CtlPlanDone = "plan_done" // plan generation complete and durable: Gen, Count
	CtlGrant    = "grant"     // lease issued: Shard, Lease, Epoch, Worker
)

// ControlRecord is one control-plane WAL line. Fields are a union over the
// record kinds; unused ones are omitted from the encoding.
type ControlRecord struct {
	Kind    string `json:"kind"`
	Gen     int    `json:"gen,omitempty"`
	Shard   string `json:"shard,omitempty"`
	Indices []int  `json:"indices,omitempty"`
	Lease   string `json:"lease,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Count   int    `json:"count,omitempty"`
}

// Control-WAL instruments live in the process-wide registry so a
// coordinator's ?format=prom scrape includes them.
var (
	walFsyncHist = obs.Default().Histogram("gpufi_shard_wal_fsync_seconds",
		"Seconds per control-WAL flush+fsync batch.", nil)
	walTornTails = obs.Default().Counter("gpufi_shard_wal_torn_tails_total",
		"Control-WAL torn final records cut during recovery.")
	walRecords = obs.Default().Counter("gpufi_shard_wal_records_total",
		"Control-plane WAL records appended.")
)

// ControlWAL is an open control-plane WAL handle: append-only, batched
// fsync, safe for concurrent use.
type ControlWAL struct{ log *appendLog }

// OpenControlWAL opens (creating if absent) the campaign's control-plane
// WAL and returns the intact records already on disk, whether a torn tail
// was cut, and the handle open for appending. The campaign directory must
// already exist. A kindless or otherwise malformed record that is not a
// torn tail is corruption and an error.
func (s *Store) OpenControlWAL(id string) ([]ControlRecord, bool, *ControlWAL, error) {
	if !ValidID(id) {
		return nil, false, nil, fmt.Errorf("store: invalid campaign id %q", id)
	}
	dir := s.campaignDir(id)
	if _, err := os.Stat(dir); err != nil {
		return nil, false, nil, fmt.Errorf("store: control WAL of %s: %v", id, err)
	}
	path := filepath.Join(dir, controlFile)
	var recs []ControlRecord
	tail, err := scanFile(path, func(raw []byte) error {
		var rec ControlRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		if rec.Kind == "" {
			return fmt.Errorf("record without a kind")
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, false, nil, fmt.Errorf("store: control WAL of %s: %v", id, err)
	}
	log, err := openLog(path, os.O_CREATE, logPolicy{name: "control WAL", batch: s.batch(), hist: walFsyncHist}, tail)
	if err != nil {
		return nil, false, nil, err
	}
	if tail.torn {
		walTornTails.Add(1)
	}
	return recs, tail.torn, &ControlWAL{log}, nil
}

// Append journals one control record, flushing and fsyncing once a batch
// has accumulated. Plan records use it: the plan_done that follows them
// syncs the set, and a generation without one is discarded.
func (w *ControlWAL) Append(rec ControlRecord) error { return w.append(rec, false) }

// AppendSync journals one control record and fsyncs immediately. Plan
// markers and grants use it: a lease epoch is only allowed to fence workers if it is
// guaranteed to survive the coordinator that issued it.
func (w *ControlWAL) AppendSync(rec ControlRecord) error { return w.append(rec, true) }

func (w *ControlWAL) append(rec ControlRecord, syncNow bool) error {
	if err := w.log.append(syncNow, rec); err != nil {
		return err
	}
	walRecords.Add(1)
	return nil
}

// Close syncs outstanding records and closes the WAL file.
func (w *ControlWAL) Close() error { return w.log.close() }
