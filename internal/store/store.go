package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// On-disk layout: one directory per campaign under the store root.
//
//	<root>/<id>/config.json    the Spec that defines the campaign
//	<root>/<id>/journal.jsonl  header + one record per finished experiment
//	<root>/<id>/traces.jsonl   propagation traces (campaigns run with Trace)
//	<root>/<id>/control.jsonl  shard plans and lease grants, and whether the
//	                           campaign is done or cancelled (wal.go)
//	<root>/<id>/spans.jsonl    the campaign's span timeline (spanlog.go)
//
// All but the config are append-only logs; log.go holds the one writer and
// the table of what differs between the four. A campaign's state is what
// they replay to: no other file marks it.
const (
	configFile  = "config.json"
	journalFile = "journal.jsonl"
	tracesFile  = "traces.jsonl"
)

// fsyncHist times every journal flush+fsync batch; it lives in the
// process-wide registry so gpufi-serve's ?format=prom view includes it.
var fsyncHist = obs.Default().Histogram("gpufi_journal_fsync_seconds",
	"Seconds per journal flush+fsync batch.", nil)

// DefaultBatchSize is the journal fsync batch: how many experiment
// records may sit in the write buffer before a flush+fsync.
const DefaultBatchSize = 32

// ErrNotFound reports a campaign id with no directory in the store.
var ErrNotFound = errors.New("store: campaign not found")

// ErrExists reports a Create against an id that already has a directory.
var ErrExists = errors.New("store: campaign already exists")

// ErrJournalBehind reports a done record that counts more experiments than
// the campaign's journal holds, which the order Finish writes in rules out.
var ErrJournalBehind = errors.New("store: done record counts experiments the journal lacks")

// Store is a durable campaign journal rooted at one directory.
type Store struct {
	dir string

	// BatchSize is the journal fsync batch (records per fsync).
	// DefaultBatchSize when zero.
	BatchSize int

	mu    sync.Mutex
	spans map[string]*appendLog // open span logs by campaign (SpanWriter)
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %v", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) campaignDir(id string) string { return filepath.Join(s.dir, id) }

func (s *Store) batch() int {
	if s.BatchSize > 0 {
		return s.BatchSize
	}
	return DefaultBatchSize
}

// The journal is fsync'd every BatchSize records, so a crash loses at most
// one batch of experiments — and since every experiment is re-derivable
// from the seed, a resumed campaign simply re-runs the lost tail and lands
// on bit-identical counts. The campaign's open span log, if any, rides
// the same clock (logPolicy.lead).
func (s *Store) journalPolicy(id string) logPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return logPolicy{name: "journal", batch: s.batch(), hist: fsyncHist, lead: s.spans[id]}
}

// The trace file is flushed, not fsync'd, per record: traces are
// observability data, not ground truth. They never drive resume decisions,
// and losing a tail of them to a crash costs nothing — the resumed
// campaign re-runs the same experiments and re-emits byte-identical
// traces, so the file may then hold a second line for the same experiment
// id; readers take the last line per id.
var tracePolicy = logPolicy{name: "trace file"}

// Campaign is an open handle on one stored campaign: its spec, whatever
// the journal already holds, and (unless the campaign is Done) a journal
// open for appending the remaining experiments.
type Campaign struct {
	ID        string
	Spec      Spec
	Done      bool              // the control log holds a done record
	Truncated bool              // journal had a torn final record (now cut)
	Prior     []core.Experiment // intact journaled experiments
	Counts    avf.Counts        // aggregated over Prior

	st      *Store
	journal *appendLog // nil when Done
	traces  *appendLog // nil unless the campaign runs with Spec.Trace
}

// CompletedIDs returns the experiment indices already in the journal —
// the set the engine skips on resume.
func (c *Campaign) CompletedIDs() []int {
	ids := make([]int, len(c.Prior))
	for i := range c.Prior {
		ids[i] = c.Prior[i].ID
	}
	return ids
}

// Record journals a group of newly finished experiments with everything
// that rides with them, in the order resume depends on. A quarantined
// experiment's quarantine record goes first, synced: it is a write-ahead
// marker, so even a process crash before the next batch fsync cannot bring
// the poison spec back on resume. The outcome record follows in the batch,
// then the propagation trace, if any. The batch clock is read once, after
// the group. Nothing else writes quarantine or trace records.
func (c *Campaign) Record(exps ...core.Experiment) error {
	if c.journal == nil {
		return fmt.Errorf("store: campaign %s is complete; nothing to record", c.ID)
	}
	recs := make([]any, 0, len(exps))
	for i, exp := range exps {
		switch {
		case exp.Trace != nil && c.traces == nil:
			return fmt.Errorf("store: campaign %s has no trace file open", c.ID)
		case exp.Quarantined:
			if err := c.journal.append(true, append(recs, quarantineRecord(exp))...); err != nil {
				return err
			}
			recs = recs[:0]
		}
		recs = append(recs, &exps[i])
		if exp.Trace != nil {
			if err := c.traces.append(false, *exp.Trace); err != nil {
				return err
			}
		}
	}
	return c.journal.append(false, recs...)
}

// Append journals one experiment's outcome record alone, for callers that
// build a journal by hand; a campaign run journals through Record.
func (c *Campaign) Append(exp core.Experiment) error {
	if c.journal == nil {
		return fmt.Errorf("store: campaign %s is complete; nothing to append", c.ID)
	}
	return c.journal.append(false, &exp)
}

// Sync flushes and fsyncs any batched journal records; with none it costs
// nothing. The shard coordinator calls it before it acknowledges a batch,
// and before it writes a plan to the control WAL: a durable plan record
// must never presume appends (pre-pass records, the last round's outcomes)
// still sitting in the journal's batch buffer.
func (c *Campaign) Sync() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.sync()
}

// EnableTraces opens (creating if needed) the campaign's trace file for
// appending, so Record can write traces: whoever drives the journal of a
// traced spec calls it once after Create/Resume. Idempotent.
func (c *Campaign) EnableTraces() error {
	if c.traces != nil {
		return nil
	}
	path := filepath.Join(c.st.campaignDir(c.ID), tracesFile)
	tail, err := scanFile(path, nil)
	if err != nil {
		return fmt.Errorf("store: traces of %s: %v", c.ID, err)
	}
	c.traces, err = openLog(path, os.O_CREATE, tracePolicy, tail)
	return err
}

// Close syncs and closes the journal and trace file (keeping the campaign
// resumable if it has not been Finished).
func (c *Campaign) Close() error {
	var err error
	if c.traces != nil {
		err, c.traces = c.traces.close(), nil
	}
	if c.journal != nil {
		err = errors.Join(err, c.journal.close())
	}
	return err
}

// Finish marks the campaign complete with the merged result res: the
// journal is closed, which syncs it, and only then does ctl, the campaign's
// control log, get a synced done record with res's experiment count and
// plan report, so it never counts an experiment the journal could still
// lose. It overrides any cancel; the store never resumes the campaign again.
func (c *Campaign) Finish(res *core.CampaignResult, ctl *ControlWAL) error {
	err := c.Close()
	if err == nil {
		err = ctl.AppendSync(ControlRecord{Kind: CtlDone, Count: len(res.Exps), Plan: res.Plan})
	}
	c.Done = err == nil
	return err
}

// Create starts a fresh campaign: a new directory, the config record, and
// a journal holding just the header. An empty id derives spec.ID().
// Returns ErrExists if the id already has a config record. (The check is
// on the config file, not the bare directory: observability writers — the
// span log — may legitimately create the directory moments before the
// campaign itself does.)
func (s *Store) Create(id string, spec Spec) (*Campaign, error) {
	spec = spec.normalize()
	if id == "" {
		id = spec.ID()
	}
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid campaign id %q", id)
	}
	dir := s.campaignDir(id)
	if _, err := os.Stat(filepath.Join(dir, configFile)); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %v", id, err)
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encode config: %v", err)
	}
	if err := writeFileSync(filepath.Join(dir, configFile), append(raw, '\n')); err != nil {
		return nil, err
	}
	j, err := openLog(filepath.Join(dir, journalFile), os.O_CREATE|os.O_EXCL, s.journalPolicy(id), logTail{})
	if err != nil {
		return nil, err
	}
	if err := j.append(true, headerRecord(headerOfSpec(spec))); err != nil {
		j.close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		j.close()
		return nil, err
	}
	return &Campaign{ID: id, Spec: spec, st: s, journal: j}, nil
}

func headerOfSpec(spec Spec) Header {
	return Header{
		App: spec.App, GPU: spec.GPU, Kernel: spec.Kernel, Structure: spec.Structure,
		Bits: spec.Bits, Runs: spec.Runs, Seed: spec.Seed,
	}
}

// state is what a campaign directory holds, as read from disk.
type state struct {
	spec            Spec
	done, cancelled bool             // what the control log replays to (readLifecycle)
	count           int              // the done record's experiment count
	plan            *core.PlanReport // the done record's; adaptive campaigns only
	hasHeader       bool
	prior           []core.Experiment
	counts          avf.Counts
	tail            logTail // the journal's crash damage, if any; not yet repaired
}

// readState reads a campaign directory without modifying it. The journal
// is parsed with recovery semantics: a torn final record is noted in tail;
// anything else malformed is an error, as is ErrJournalBehind.
func (s *Store) readState(id string) (*state, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid campaign id %q", id)
	}
	dir := s.campaignDir(id)
	rawCfg, err := os.ReadFile(filepath.Join(dir, configFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read config of %s: %v", id, err)
	}
	var st state
	if err := json.Unmarshal(rawCfg, &st.spec); err != nil {
		return nil, fmt.Errorf("store: config of %s: %v", id, err)
	}
	st.spec = st.spec.normalize()
	if err := s.readLifecycle(id, &st); err != nil {
		return nil, err
	}

	var dec logDecoder
	if st.tail, err = scanFile(filepath.Join(dir, journalFile), dec.line); err != nil {
		return nil, fmt.Errorf("store: journal of %s: %v", id, err)
	}
	// Resolve quarantine records whose outcome record was lost to the
	// crash: their experiments are synthesized into the prior set, so the
	// resume skip-list covers the poison specs.
	dec.finish()
	switch len(dec.out) {
	case 0:
	case 1:
		st.hasHeader = true
		hdr := dec.out[0]
		if hdr.Seed != st.spec.Seed || hdr.Runs != st.spec.Runs {
			return nil, fmt.Errorf("store: journal of %s disagrees with its config (seed %d/%d, runs %d/%d)",
				id, hdr.Seed, st.spec.Seed, hdr.Runs, st.spec.Runs)
		}
		st.prior = hdr.Exps
		st.counts = hdr.Counts
	default:
		return nil, fmt.Errorf("store: journal of %s holds %d campaigns; a journal holds exactly one", id, len(dec.out))
	}
	if st.done && len(st.prior) < st.count {
		return nil, fmt.Errorf("%w: %s is done with %d experiments, its journal holds %d",
			ErrJournalBehind, id, st.count, len(st.prior))
	}
	return &st, nil
}

// Resume re-opens a stored campaign for further appends: the journal's
// torn tail (if any) is cut at the last intact record, the completed
// experiments are loaded, and the journal is opened for appending. A Done
// campaign resumes read-only (no journal handle); appending to it fails.
func (s *Store) Resume(id string) (*Campaign, error) {
	st, err := s.readState(id)
	if err != nil {
		return nil, err
	}
	return s.resume(id, st)
}

// resume opens the journal of a campaign readState has read.
func (s *Store) resume(id string, st *state) (*Campaign, error) {
	c := &Campaign{
		ID: id, Spec: st.spec, Done: st.done,
		Truncated: st.tail.torn, Prior: st.prior, Counts: st.counts, st: s,
	}
	if st.done {
		return c, nil
	}
	j, err := openLog(filepath.Join(s.campaignDir(id), journalFile), os.O_CREATE, s.journalPolicy(id), st.tail)
	if err != nil {
		return nil, err
	}
	if !st.hasHeader {
		if err := j.append(true, headerRecord(headerOfSpec(st.spec))); err != nil {
			j.close()
			return nil, err
		}
	}
	c.journal = j
	return c, nil
}

// CreateOrResume opens campaign id (spec.ID() when empty) to run spec:
// Create when the id is new, Resume when it holds the same spec. A
// different stored spec is an error, found before anything is opened, so
// that campaign's journal is left exactly as it was. A traced spec gets its
// trace file opened unless the campaign is Done.
func (s *Store) CreateOrResume(id string, spec Spec) (*Campaign, error) {
	spec = spec.normalize()
	if id == "" {
		id = spec.ID()
	}
	st, err := s.readState(id)
	var c *Campaign
	switch {
	case errors.Is(err, ErrNotFound):
		c, err = s.Create(id, spec)
	case err != nil:
	case !SameSpec(st.spec, spec):
		err = fmt.Errorf("store: campaign %s exists with a different spec; choose another id", id)
	default:
		c, err = s.resume(id, st)
	}
	if err != nil {
		return nil, err
	}
	if spec.Trace && !c.Done {
		if err := c.EnableTraces(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Info is a read-only snapshot of a stored campaign.
type Info struct {
	ID        string
	Spec      Spec
	Done      bool
	Cancelled bool
	Truncated bool
	Completed int // intact journaled experiments
	Analytic  int // of them, the adaptive planner's analytic pre-pass records
	Counts    avf.Counts
	Plan      *core.PlanReport // a finished adaptive campaign's final report
}

// Inspect reads a campaign's state without opening it for writing and
// without modifying the journal.
func (s *Store) Inspect(id string) (*Info, error) {
	st, err := s.readState(id)
	if err != nil {
		return nil, err
	}
	info := &Info{
		ID: id, Spec: st.spec, Done: st.done, Cancelled: st.cancelled,
		Truncated: st.tail.torn, Completed: len(st.prior), Counts: st.counts, Plan: st.plan,
	}
	for _, e := range st.prior {
		if e.Detail == core.AnalyticDetail {
			info.Analytic++
		}
	}
	return info, nil
}

// Exists reports whether a campaign directory exists for id.
func (s *Store) Exists(id string) bool {
	if !ValidID(id) {
		return false
	}
	_, err := os.Stat(filepath.Join(s.campaignDir(id), configFile))
	return err == nil
}

// List returns every campaign id in the store, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list: %v", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && s.Exists(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Unfinished returns the campaigns whose control log holds neither a done
// record nor a standing cancel — the set a restarted service resumes —
// reading the control logs only. One whose state cannot be read (say,
// ErrLegacyMarkers) is listed too, its error joined into the one returned.
func (s *Store) Unfinished() (out []string, err error) {
	ids, err := s.List()
	for _, id := range ids {
		var st state
		lerr := s.readLifecycle(id, &st)
		if err = errors.Join(err, lerr); lerr != nil || !st.done && !st.cancelled {
			out = append(out, id)
		}
	}
	return out, err
}

// MarkCancelled appends a cancel record to the campaign's control log,
// excluding it from resume scans until ClearCancelled. Both open the log
// themselves, so no coordinator may hold it: the caller runs after the
// campaign's Run returned, while its job is queued, or for a campaign
// this process does not coordinate.
func (s *Store) MarkCancelled(id string) error { return s.appendControl(id, CtlCancel) }

// ClearCancelled appends an uncancel record (an explicit resubmit).
func (s *Store) ClearCancelled(id string) error { return s.appendControl(id, CtlUncancel) }

// appendControl appends one synced record of kind to campaign id's control
// log, opened for it and closed again.
func (s *Store) appendControl(id, kind string) error {
	_, _, w, err := s.OpenControlWAL(id)
	if err == nil {
		err = errors.Join(w.AppendSync(ControlRecord{Kind: kind}), w.Close())
	}
	return err
}

// OpenLog opens the campaign's raw JSONL journal for reading.
func (s *Store) OpenLog(id string) (io.ReadCloser, error) { return s.openRead(id, journalFile) }

// OpenTraces opens the campaign's propagation-trace JSONL for reading.
// Campaigns run without Spec.Trace have no trace file; that reads as
// ErrNotFound, same as an unknown id.
func (s *Store) OpenTraces(id string) (io.ReadCloser, error) { return s.openRead(id, tracesFile) }

// openRead opens one of a campaign's logs for reading; a missing file (or
// campaign) reads as ErrNotFound.
func (s *Store) openRead(id, name string) (io.ReadCloser, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid campaign id %q", id)
	}
	f, err := os.Open(filepath.Join(s.campaignDir(id), name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s has no %s", ErrNotFound, id, name)
	}
	return f, err
}

// SameSpec reports whether two specs describe the same campaign point, so
// CreateOrResume can detect an id collision with a different campaign. The JSON encoding is the comparison domain — it is
// also what the config record stores, so empty and nil slices coincide.
// The worker count is not part of a campaign's identity: outcomes and
// journal records are the same for any count, so a campaign resumes under
// another one.
func SameSpec(a, b Spec) bool {
	a.Workers, b.Workers = 0, 0
	ra, errA := json.Marshal(a.normalize())
	rb, errB := json.Marshal(b.normalize())
	return errA == nil && errB == nil && bytes.Equal(ra, rb)
}

// MergedResult merges the journaled prior experiments with a fresh
// engine result (which covers only the newly run indices) into one
// CampaignResult ordered by experiment id.
func (c *Campaign) MergedResult(res *core.CampaignResult) *core.CampaignResult {
	merged := &core.CampaignResult{
		App: c.Spec.App, GPU: c.Spec.GPU, Kernel: c.Spec.Kernel,
		Structure: c.Spec.Structure, Bits: c.Spec.Bits, Runs: c.Spec.Runs, Seed: c.Spec.Seed,
	}
	if res != nil {
		merged.App, merged.GPU = res.App, res.GPU // profile's canonical names
		merged.Plan = res.Plan
		merged.Exps = append(merged.Exps, res.Exps...)
	}
	merged.Exps = append(merged.Exps, c.Prior...)
	sort.Slice(merged.Exps, func(a, b int) bool { return merged.Exps[a].ID < merged.Exps[b].ID })
	for i := range merged.Exps {
		merged.Counts.Add(merged.Exps[i].Outcome)
	}
	return merged
}

// writeFileSync writes data to path and fsyncs the file before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(data)
		err = errors.Join(err, f.Sync(), f.Close())
	}
	if err != nil {
		return fmt.Errorf("store: write %s: %v", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so freshly created entries survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %v", dir, err)
	}
	return nil
}
