package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gpufi/internal/obs"
)

// spansFile holds a campaign's completed trace spans, one JSON record
// per line. It shares the journal's durability clock: spans are buffered
// and reach the disk just ahead of every journal sync (and on Close), so a
// crash loses the spans of at most the journal batch it loses anyway —
// whose experiments re-run and re-emit theirs on resume — and a span never
// costs an fsync of its own. Unlike the journal it is never ground truth:
// resume decisions ignore it, and records lost to a torn tail are simply
// absent from the timeline (the flight recorder covers the gap).
const spansFile = "spans.jsonl"

// flightFile is the flight-recorder dump written next to the store root
// on SIGQUIT, panic, or coordinator crash-recovery start.
const flightFile = "flight.jsonl"

var spanFsyncHist = obs.Default().Histogram("gpufi_span_fsync_seconds",
	"Seconds per span-log flush+fsync batch.", nil)

// SpanLog is an append-only per-campaign span file, synced with the
// campaign's journal. Safe for concurrent use: the service's sink and the
// coordinator's batch-merge path both append to the same log.
type SpanLog struct {
	log *appendLog
	st  *Store
	id  string
}

// SpanWriter opens (creating if needed) the span log for a campaign,
// creating the campaign directory itself when the campaign has not been
// created yet — the span log is opened before the first span is emitted,
// which is before the campaign's own Create runs. A half-line a crash left
// at the tail is cut first, so the restarted process's first span lands on
// a line of its own; the rest of the file is not read. While the log is
// open, a journal opened for the same campaign syncs it first.
func (s *Store) SpanWriter(id string) (*SpanLog, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("store: invalid campaign id %q", id)
	}
	dir := s.campaignDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: span log %s: %v", id, err)
	}
	path := filepath.Join(dir, spansFile)
	tail, err := scanFile(path, nil)
	if err != nil {
		return nil, fmt.Errorf("store: span log %s: %v", id, err)
	}
	log, err := openLog(path, os.O_CREATE, logPolicy{name: "span log", batch: -1, hist: spanFsyncHist}, tail)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.spans == nil {
		s.spans = make(map[string]*appendLog)
	}
	s.spans[id] = log
	s.mu.Unlock()
	return &SpanLog{log: log, st: s, id: id}, nil
}

// Append buffers one span record; the journal's next sync carries it.
func (l *SpanLog) Append(rec obs.SpanRecord) error { return l.log.append(false, rec) }

// Close syncs outstanding spans and closes the file.
func (l *SpanLog) Close() error {
	l.st.mu.Lock()
	if l.st.spans[l.id] == l.log {
		delete(l.st.spans, l.id)
	}
	l.st.mu.Unlock()
	return l.log.close()
}

// OpenSpans streams a campaign's span log. ErrNotFound when the campaign
// has no spans (untraced or never ran).
func (s *Store) OpenSpans(id string) (io.ReadCloser, error) {
	if !s.Exists(id) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return s.openRead(id, spansFile)
}

// FlightPath is where this store's flight-recorder dumps land.
func (s *Store) FlightPath() string { return filepath.Join(s.dir, flightFile) }
