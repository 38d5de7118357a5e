package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"gpufi/internal/obs"
)

// Every file the store appends to — the experiment journal, the control
// WAL, the span log and the trace file — is one appendLog: JSON lines
// through one buffer, one fsync path, and one recovery rule applied when
// the file is opened. What differs per file is the record type handed to
// append and its logPolicy:
//
//	file           records                  fsync                 ground truth
//	journal.jsonl  header, exp, quarantine  per batch; header     yes
//	                                        and quarantine now
//	control.jsonl  ControlRecord            per batch;            plans and lease
//	                                        AppendSync now        epochs only
//	spans.jsonl    obs.SpanRecord           with the journal      no
//	traces.jsonl   core.ExperimentTrace     on close (flushed     no
//	                                        per record)
//
// The recovery rule: a crash can leave the final record syntactically torn
// (cut mid-write) or intact but missing its newline. Opening cuts the
// former and restores the separator of the latter, so the next append
// always starts on its own line; a malformed record anywhere else is
// corruption and an error, never silently dropped.

// logPolicy is what differs between the store's logs besides the record
// type: how the file is named in errors and when its bytes become durable.
type logPolicy struct {
	name string // names the log in errors: "journal", "control WAL", ...

	// batch is how many appended records may sit in the write buffer
	// before a flush+fsync, so a crash loses at most one batch. Zero means
	// every record is flushed to the OS at once but fsync'd only on Close:
	// the policy of a file whose readers tail it and whose loss costs
	// nothing. Negative means the log has no durability clock of its own:
	// records stay buffered until the log it leads syncs, or Close.
	batch int

	hist *obs.Histogram // times every flush+fsync; nil leaves them untimed

	// lead is a log synced just ahead of every sync of this one: a
	// campaign's span log leads its journal, so the timeline on disk is
	// never behind the experiments it describes and the pair costs one
	// fsync wait per batch, not two clocks. Nil for every other log.
	lead *appendLog
}

// appendLog is an append-only JSON-lines file. Safe for concurrent use.
type appendLog struct {
	logPolicy
	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	enc     *json.Encoder // onto bw; one record per line
	pending int           // records appended since the last fsync
	closed  bool
}

// logTail is the recovery judgement on a log file's final bytes.
type logTail struct {
	good int64 // offset just past the last intact record
	torn bool  // a syntactically broken final record follows good
	noNL bool  // the final record is intact but lost its newline
}

// openLog opens path for appending (flag adds os.O_CREATE, os.O_EXCL) after
// repairing the crash damage tail describes, which scanLog or scanFile
// found.
func openLog(path string, flag int, p logPolicy, tail logTail) (*appendLog, error) {
	if tail.torn {
		if err := os.Truncate(path, tail.good); err != nil {
			return nil, fmt.Errorf("store: cut torn %s tail: %v", p.name, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", p.name, err)
	}
	if tail.noNL {
		// Appending straight after a record that lost its newline would
		// weld two records into one corrupt line. (A cut torn tail needs
		// no such repair: the truncation lands on the previous newline.)
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: repair %s: %v", p.name, err)
		}
	}
	bw := bufio.NewWriter(f)
	return &appendLog{logPolicy: p, f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

// append encodes rec as one line. The bytes reach the disk when the policy
// says so, or before append returns if syncNow — the write-ahead records
// whose durability something else is about to rely on.
func (l *appendLog) append(rec any, syncNow bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: append to closed %s", l.name)
	}
	if err := l.enc.Encode(rec); err != nil {
		return fmt.Errorf("store: write %s record: %v", l.name, err)
	}
	l.pending++
	if syncNow || (l.batch > 0 && l.pending >= l.batch) {
		return l.syncLocked()
	}
	if l.batch == 0 {
		if err := l.bw.Flush(); err != nil {
			return fmt.Errorf("store: flush %s: %v", l.name, err)
		}
	}
	return nil
}

// sync flushes buffered records and fsyncs the file.
func (l *appendLog) sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// syncLocked is the one place a log reaches the disk: flush, then fsync,
// in that order, so no record is reported durable while still buffered.
func (l *appendLog) syncLocked() error {
	if l.lead != nil {
		l.lead.sync() // never ground truth: its failure must not fail this log
	}
	start := time.Now()
	if err := l.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush %s: %v", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %v", l.name, err)
	}
	if l.hist != nil {
		l.hist.Observe(time.Since(start).Seconds())
	}
	l.pending = 0
	return nil
}

// close syncs outstanding records and closes the file. Idempotent.
func (l *appendLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// maxRecordBytes bounds one log line; the largest real records are plan
// shards (a few bytes per index) and event-heavy traces.
const maxRecordBytes = 64 << 20

// scanLog feeds every non-blank line of a JSON-lines stream to decode and
// judges the stream's tail. A record that fails at the JSON layer with
// nothing but whitespace after it is the signature of a torn write: in
// lenient mode it is reported as tail.torn instead of an error. A failed
// record followed by more data, or well-formed JSON that decode rejects,
// is corruption wherever it sits. Errors name the line.
func scanLog(r io.Reader, lenient bool, decode func(raw []byte) error) (logTail, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxRecordBytes)
	sc.Split(splitLines)
	var tail logTail
	var end int64  // bytes consumed so far
	var torn error // the record that failed at the JSON layer, until judged
	for line := 1; sc.Scan(); line++ {
		tok := sc.Bytes()
		end += int64(len(tok))
		tail.noNL = tok[len(tok)-1] != '\n' // only the final line can lack one
		raw := bytes.TrimSpace(tok)
		if len(raw) == 0 {
			continue
		}
		if torn != nil {
			return logTail{}, torn
		}
		if err := decode(raw); err != nil {
			err = fmt.Errorf("line %d: %v", line, err)
			if !lenient || json.Valid(raw) {
				return logTail{}, err
			}
			torn = err // corruption if another record follows, a torn tail at EOF
			continue
		}
		tail.good = end
	}
	if err := sc.Err(); err != nil {
		return logTail{}, fmt.Errorf("read: %v", err)
	}
	if torn != nil {
		tail.torn, tail.noNL = true, false
	}
	return tail, nil
}

// splitLines is bufio.ScanLines keeping the newline, so the scanner's
// caller can account for every byte.
func splitLines(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// scanFile judges the tail of the log at path without modifying it; a
// missing file is an empty log. With a decode function the whole file is
// parsed — the logs that are ground truth, whose records the caller needs
// anyway. With nil only the final line is examined: the observability
// logs, which nothing parses on open and whose damage can only be there.
func scanFile(path string, decode func(raw []byte) error) (logTail, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return logTail{}, nil
	}
	if err != nil {
		return logTail{}, err
	}
	defer f.Close()
	var start int64
	if decode == nil {
		decode = func(raw []byte) error { var v any; return json.Unmarshal(raw, &v) }
		if start, err = seekLastLine(f); err != nil {
			return logTail{}, err
		}
	}
	tail, err := scanLog(f, true, decode)
	tail.good += start
	return tail, err
}

// seekLastLine positions f just past its final newline (at 0 if it has
// none) and returns that offset.
func seekLastLine(f *os.File) (int64, error) {
	end, err := f.Seek(0, io.SeekEnd)
	buf := make([]byte, 4096)
	for err == nil && end > 0 {
		n := min(end, int64(len(buf)))
		if _, err = f.ReadAt(buf[:n], end-n); err != nil {
			break
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end += int64(i+1) - n
			break
		}
		end -= n
	}
	if err != nil {
		return 0, err
	}
	return f.Seek(end, io.SeekStart)
}
