package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
)

// On-disk layout: one directory per campaign under the store root.
//
//	<root>/<id>/config.json    the Spec that defines the campaign
//	<root>/<id>/journal.jsonl  header + one record per finished experiment
//	<root>/<id>/traces.jsonl   propagation traces (campaigns run with Trace)
//	<root>/<id>/done.json      completion marker with the final summary
//	<root>/<id>/cancelled      marker: deliberately stopped, do not resume
//
// The journal and the trace file are append-only logs, as are the control
// WAL (wal.go) and the span log (spanlog.go) next to them; log.go holds the
// one writer and the table of what differs between the four.
const (
	configFile    = "config.json"
	journalFile   = "journal.jsonl"
	tracesFile    = "traces.jsonl"
	doneFile      = "done.json"
	cancelledFile = "cancelled"
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
	Done      bool              // completion marker present
	Cancelled bool              // cancellation marker present
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

// Append journals one newly finished experiment.
func (c *Campaign) Append(exp core.Experiment) error {
	if c.journal == nil {
		return fmt.Errorf("store: campaign %s is complete; nothing to append", c.ID)
	}
	return c.journal.append(expRecord(exp), false)
}

// Quarantine journals a quarantine record for a poisoned experiment and
// syncs it immediately — it is a write-ahead marker: by the time the
// sandbox reports the outcome upward, the spec is already durably flagged,
// so even a process crash before the next batch fsync cannot bring the
// poison spec back on resume.
func (c *Campaign) Quarantine(exp core.Experiment) error {
	if c.journal == nil {
		return fmt.Errorf("store: campaign %s is complete; nothing to quarantine", c.ID)
	}
	return c.journal.append(quarantineRecord(exp), true)
}

// Sync flushes and fsyncs any batched journal records. The shard
// coordinator calls it before writing a plan to the control WAL: a durable
// plan record must never reference analytic pre-pass appends that are
// still sitting in the journal's batch buffer.
func (c *Campaign) Sync() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.sync()
}

// AppendTrace persists one experiment's propagation trace.
func (c *Campaign) AppendTrace(tr core.ExperimentTrace) error {
	if c.traces == nil {
		return fmt.Errorf("store: campaign %s has no trace file open", c.ID)
	}
	return c.traces.append(tr, false)
}

// EnableTraces opens (creating if needed) the campaign's trace file for
// appending, so AppendTrace works: whoever drives the journal of a traced
// spec calls it once after Create/Resume. Idempotent.
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
		err = c.traces.close()
		c.traces = nil
	}
	if c.journal == nil {
		return err
	}
	if jerr := c.journal.close(); err == nil {
		err = jerr
	}
	return err
}

// doneRecord is the completion marker's content: the final summary a
// restarting service can report without re-parsing the journal.
type doneRecord struct {
	Header
	Counts     avf.Counts       `json:"counts"`
	Plan       *core.PlanReport `json:"plan,omitempty"`
	FinishedAt time.Time        `json:"finished_at"`
}

// Finish marks the campaign complete: the journal is synced and closed
// and the completion marker is written with the merged summary. After
// Finish the store will never resume this campaign again.
func (c *Campaign) Finish(res *core.CampaignResult) error {
	if err := c.Close(); err != nil {
		return err
	}
	rec := doneRecord{Header: HeaderOf(res), Counts: res.Counts, Plan: res.Plan, FinishedAt: time.Now().UTC()}
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode completion marker: %v", err)
	}
	dir := c.st.campaignDir(c.ID)
	if err := writeFileSync(filepath.Join(dir, doneFile), append(raw, '\n')); err != nil {
		return err
	}
	c.Done = true
	return syncDir(dir)
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
	if err := j.append(headerRecord(headerOfSpec(spec)), true); err != nil {
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
	spec      Spec
	done      bool
	plan      *core.PlanReport // from the completion marker; adaptive campaigns only
	cancelled bool
	hasHeader bool
	prior     []core.Experiment
	counts    avf.Counts
	tail      logTail // the journal's crash damage, if any; not yet repaired
}

// readState reads a campaign directory without modifying it. The journal
// is parsed with recovery semantics: a torn final record is noted in tail;
// anything else malformed is an error.
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
	if raw, err := os.ReadFile(filepath.Join(dir, doneFile)); err == nil {
		// The marker's presence is what makes a campaign done; its summary
		// is read for the plan report, which the journal does not carry.
		st.done = true
		var rec doneRecord
		if json.Unmarshal(raw, &rec) == nil {
			st.plan = rec.Plan
		}
	}
	if _, err := os.Stat(filepath.Join(dir, cancelledFile)); err == nil {
		st.cancelled = true
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
	c := &Campaign{
		ID: id, Spec: st.spec, Done: st.done, Cancelled: st.cancelled,
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
		if err := j.append(headerRecord(headerOfSpec(st.spec)), true); err != nil {
			j.close()
			return nil, err
		}
	}
	c.journal = j
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
	return &Info{
		ID: id, Spec: st.spec, Done: st.done, Cancelled: st.cancelled,
		Truncated: st.tail.torn, Completed: len(st.prior), Counts: st.counts, Plan: st.plan,
	}, nil
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

// Unfinished returns the campaigns that have a journal but neither a
// completion nor a cancellation marker — the set a restarted service
// resumes.
func (s *Store) Unfinished() ([]string, error) {
	ids, err := s.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, id := range ids {
		dir := s.campaignDir(id)
		if _, err := os.Stat(filepath.Join(dir, doneFile)); err == nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, cancelledFile)); err == nil {
			continue
		}
		out = append(out, id)
	}
	return out, nil
}

// MarkCancelled writes the cancellation marker, excluding the campaign
// from future resume scans until ClearCancelled.
func (s *Store) MarkCancelled(id string) error {
	if !s.Exists(id) {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	dir := s.campaignDir(id)
	if err := writeFileSync(filepath.Join(dir, cancelledFile), []byte("cancelled\n")); err != nil {
		return err
	}
	return syncDir(dir)
}

// ClearCancelled removes the cancellation marker (an explicit resubmit).
func (s *Store) ClearCancelled(id string) error {
	err := os.Remove(filepath.Join(s.campaignDir(id), cancelledFile))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: clear cancellation of %s: %v", id, err)
	}
	return nil
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

// Run executes a campaign durably: create the journal (or resume it if the
// id already exists, skipping every journaled experiment), run the engine
// with the journal hook attached, and on completion write the done marker.
// A context cancellation syncs whatever finished and returns the merged
// partial result with ctx's error — a later Run with the same id picks up
// where it stopped. prof may be nil (the golden run is performed first) or
// a shared precomputed profile. onExp, when non-nil, observes every newly
// finished experiment after it is journaled.
func (s *Store) Run(ctx context.Context, id string, spec Spec, prof *core.Profile,
	onExp func(core.Experiment)) (*core.CampaignResult, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.normalize()
	if id == "" {
		id = spec.ID()
	}
	var c *Campaign
	var err error
	if s.Exists(id) {
		c, err = s.Resume(id)
		if err == nil && !SameSpec(c.Spec, spec) {
			err = fmt.Errorf("store: campaign %s exists with a different spec; choose another id", id)
		}
	} else {
		c, err = s.Create(id, spec)
	}
	if err != nil {
		return nil, err
	}
	if c.Done {
		return c.MergedResult(nil), nil
	}
	defer c.Close()

	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Completed = c.CompletedIDs()
	cfg.PlanPrior = c.Counts
	cfg.Journal = c.Append
	cfg.Quarantine = c.Quarantine
	cfg.Progress = onExp
	if cfg.Trace {
		if err := c.EnableTraces(); err != nil {
			return nil, err
		}
		cfg.TraceSink = c.AppendTrace
	}
	if prof == nil {
		prof, err = core.ProfileApp(ctx, cfg.App, cfg.GPU)
		if err != nil {
			return nil, err
		}
	}
	res, runErr := core.RunCampaign(ctx, cfg, prof)
	if runErr != nil && res == nil {
		return nil, runErr
	}
	merged := c.MergedResult(res)
	if runErr != nil {
		// Cancellation (or any abort): sync what finished and keep the
		// campaign resumable.
		if err := c.Close(); err != nil {
			return merged, err
		}
		return merged, runErr
	}
	if err := s.ClearCancelled(id); err != nil {
		return merged, err
	}
	if err := c.Finish(merged); err != nil {
		return merged, err
	}
	return merged, nil
}

// SameSpec reports whether two specs describe the same campaign point, so
// Run (and the shard coordinator) can detect an id collision with a
// different campaign. The JSON encoding is the comparison domain — it is
// also what the config record stores, so empty and nil slices coincide.
func SameSpec(a, b Spec) bool {
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
	if err != nil {
		return fmt.Errorf("store: write %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write %s: %v", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync %s: %v", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so freshly created entries survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: sync dir %s: %v", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %v", dir, err)
	}
	return nil
}
