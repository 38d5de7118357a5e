package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// The control-plane WAL is the shard coordinator's durability layer: an
// append-only JSONL file (control.jsonl, next to the experiment journal)
// holding exactly what a restarted coordinator replays to rebuild its
// shard table, outstanding leases and lease epochs — shard plans and lease
// grants — and the campaign's lifecycle: whether it is done or cancelled.
// The journal stays the single source of truth for WHICH experiments are
// merged.
//
// It is an appendLog like the experiment journal: plan records are
// batched, and AppendSync closes a plan generation and writes every grant
// (a lease epoch handed to a worker must survive the coordinator, or
// fencing breaks); opening it tolerates exactly one torn record at the
// tail, cutting it.
const controlFile = "control.jsonl"

// Control record kinds: the ones a replay reads — shard's replay the first
// three, readLifecycle the rest, each skipping the other's — which are the
// only ones written. Plan records carry a generation: a coordinator that
// cannot trust a partial plan (no plan_done marker for its generation)
// re-plans under the next generation, and stale grants are ignored because
// shard ids embed the generation. Earlier builds also wrote renew, expire,
// merge, shard_done, retire and finalize records; the readers skip them.
const (
	CtlPlan     = "plan"      // one shard of a plan generation: Gen, Shard, Indices
	CtlPlanDone = "plan_done" // plan generation complete and durable: Gen, Count
	CtlGrant    = "grant"     // lease issued: Shard, Lease, Epoch, Worker
	CtlDone     = "done"      // campaign complete: Count experiments merged, Plan
	CtlCancel   = "cancel"    // deliberately stopped: do not resume
	CtlUncancel = "uncancel"  // resubmitted: the last cancel no longer holds
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

	Plan *core.PlanReport `json:"plan,omitempty"` // done: an adaptive campaign's final report
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
// was cut, and the handle open for appending. The campaign must already
// exist (ErrNotFound). A kindless or otherwise malformed record that is
// not a torn tail is corruption and an error.
func (s *Store) OpenControlWAL(id string) ([]ControlRecord, bool, *ControlWAL, error) {
	if !s.Exists(id) {
		return nil, false, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	path := filepath.Join(s.campaignDir(id), controlFile)
	recs, tail, err := scanControl(id, path)
	if err != nil {
		return nil, false, nil, err
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

// scanControl reads campaign id's control log at path without modifying
// it: its intact records, and the judgement on its tail.
func scanControl(id, path string) ([]ControlRecord, logTail, error) {
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
		return nil, tail, fmt.Errorf("store: control WAL of %s: %v", id, err)
	}
	return recs, tail, nil
}

// ErrLegacyMarkers reports a campaign directory an earlier build wrote,
// with done.json or cancelled marker files where this one writes control
// records. It is refused, not upgraded.
var ErrLegacyMarkers = errors.New("store: campaign directory holds a marker file of an earlier build")

// readLifecycle replays campaign id's control log into st's done,
// cancelled, count and plan without modifying it: a torn tail is ignored,
// and a missing log is a campaign neither done nor cancelled. A done record
// makes it done, whatever cancel stands; otherwise the last of cancel and
// uncancel decides.
func (s *Store) readLifecycle(id string, st *state) error {
	dir := s.campaignDir(id)
	for _, name := range []string{"done.json", "cancelled"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("%w: %s/%s", ErrLegacyMarkers, id, name)
		}
	}
	ctl, _, err := scanControl(id, filepath.Join(dir, controlFile))
	for _, r := range ctl {
		switch r.Kind {
		case CtlDone:
			st.done, st.count, st.plan = true, r.Count, r.Plan
		case CtlCancel, CtlUncancel:
			st.cancelled = r.Kind == CtlCancel
		}
	}
	st.cancelled = st.cancelled && !st.done
	return err
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
