// Package store is the durable campaign layer of the reproduction: the
// JSONL record codec shared by every log writer in the tree, and an
// append-only on-disk campaign journal with crash-safe resume. A campaign
// directory holds a config record, a journal of per-experiment outcome
// records fsync'd in batches, and a control log that says whether the
// campaign is done or cancelled; re-opening a partial journal tolerates a
// torn final record and tells the engine which experiment indices to skip.
package store

import (
	"encoding/json"
	"fmt"
	"io"

	"gpufi/internal/avf"
	"gpufi/internal/core"
)

// The log format is JSON lines: one header record per campaign followed by
// one record per experiment. The parser module reads these back and
// aggregates the fault-effect statistics — the third of the paper's three
// gpuFI-4 modules (bash + text logs there, structured logs here). The same
// codec serves one-shot log files (gpufi -log) and the durable campaign
// journals of this package.

// Header is a campaign's log header record.
type Header struct {
	App       string `json:"app"`
	GPU       string `json:"gpu"`
	Kernel    string `json:"kernel"`
	Structure string `json:"structure"`
	Bits      int    `json:"bits"`
	Runs      int    `json:"runs"`
	Seed      int64  `json:"seed"`
}

type logHeader struct {
	Type string `json:"type"` // "campaign"
	Header
}

type logExp struct {
	Type string `json:"type"` // "exp"
	core.Experiment
}

// logQuar is a quarantine record: Campaign.Record writes one, synced, for
// an experiment that poisoned its vessel (simulator panic or wall-clock
// deadline), BEFORE the batched outcome record. The decoder ignores it when
// the outcome record follows; if the process died in that window, recovery
// synthesizes the outcome from it — so a crash-looping spec is skipped on
// resume instead of re-crashing the campaign forever.
type logQuar struct {
	Type   string `json:"type"` // "quarantine"
	ID     int    `json:"id"`
	Effect string `json:"effect"` // outcome name (Crash or Timeout)
	Reason string `json:"reason,omitempty"`
}

// The record constructors are the one encoding of each record type:
// LogWriter (any stream) and the store's journal (an appendLog) share the
// header and experiment records; only the journal writes quarantine records.
func headerRecord(h Header) logHeader { return logHeader{Type: "campaign", Header: h} }

func expRecord(exp core.Experiment) logExp { return logExp{Type: "exp", Experiment: exp} }

func quarantineRecord(exp core.Experiment) logQuar {
	return logQuar{Type: "quarantine", ID: exp.ID, Effect: exp.Outcome.String(), Reason: exp.Detail}
}

// LogWriter writes campaign records to a stream: one Begin per campaign,
// then one Experiment per record, in any interleaving ParseLog accepts.
// It is not safe for concurrent use; the campaign engine already
// serializes its journal callbacks.
type LogWriter struct {
	enc *json.Encoder
}

// NewLogWriter returns a writer emitting records to w.
func NewLogWriter(w io.Writer) *LogWriter {
	return &LogWriter{enc: json.NewEncoder(w)}
}

// Begin emits a campaign header record.
func (lw *LogWriter) Begin(h Header) error {
	if err := lw.enc.Encode(headerRecord(h)); err != nil {
		return fmt.Errorf("store: write log header: %v", err)
	}
	return nil
}

// Experiment emits one experiment record under the last Begin.
func (lw *LogWriter) Experiment(exp core.Experiment) error {
	if err := lw.enc.Encode(expRecord(exp)); err != nil {
		return fmt.Errorf("store: write log record %d: %v", exp.ID, err)
	}
	return nil
}

// Result emits a whole finished campaign: header plus every experiment.
func (lw *LogWriter) Result(res *core.CampaignResult) error {
	if err := lw.Begin(Header{App: res.App, GPU: res.GPU, Kernel: res.Kernel,
		Structure: res.Structure, Bits: res.Bits, Runs: res.Runs, Seed: res.Seed}); err != nil {
		return err
	}
	for i := range res.Exps {
		if err := lw.Experiment(res.Exps[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteLog serializes a campaign result (header + experiments) to w.
func WriteLog(w io.Writer, res *core.CampaignResult) error {
	return NewLogWriter(w).Result(res)
}

// logDecoder accumulates campaign results one record line at a time, fed
// by scanLog: from a stream for the parsers here, from the journal file
// for the recovery in store.go.
type logDecoder struct {
	out []*core.CampaignResult
	cur *core.CampaignResult

	// quars holds the current campaign's quarantine records until finish
	// decides which of them need a synthesized outcome.
	quars []logQuar
}

// line decodes one non-empty record line. The reported error carries no
// line number; callers wrap it with their own position information.
func (d *logDecoder) line(raw []byte) error {
	var probe struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return err
	}
	switch probe.Type {
	case "campaign":
		var hdr logHeader
		if err := json.Unmarshal(raw, &hdr); err != nil {
			return err
		}
		d.finish()
		d.cur = &core.CampaignResult{
			App: hdr.App, GPU: hdr.GPU, Kernel: hdr.Kernel,
			Structure: hdr.Structure, Bits: hdr.Bits, Runs: hdr.Runs, Seed: hdr.Seed,
		}
		d.out = append(d.out, d.cur)
	case "exp":
		if d.cur == nil {
			return fmt.Errorf("experiment before campaign header")
		}
		var le logExp
		if err := json.Unmarshal(raw, &le); err != nil {
			return err
		}
		o, err := avf.ParseOutcome(le.Effect)
		if err != nil {
			return err
		}
		le.Outcome = o
		d.cur.Exps = append(d.cur.Exps, le.Experiment)
		d.cur.Counts.Add(o)
	case "quarantine":
		if d.cur == nil {
			return fmt.Errorf("quarantine record before campaign header")
		}
		var lq logQuar
		if err := json.Unmarshal(raw, &lq); err != nil {
			return err
		}
		if _, err := avf.ParseOutcome(lq.Effect); err != nil {
			return err
		}
		d.quars = append(d.quars, lq)
	default:
		return fmt.Errorf("unknown record type %q", probe.Type)
	}
	return nil
}

// finish resolves the pending quarantine records of the current campaign.
// A quarantined id whose outcome record made it to disk needs nothing; one
// whose outcome was lost (the process died between the synced quarantine
// write and the batched outcome flush) gets its outcome synthesized from
// the quarantine record, so counts stay complete and resume skips the
// poison spec. Callers invoke it at each campaign boundary and at EOF.
func (d *logDecoder) finish() {
	if d.cur == nil || len(d.quars) == 0 {
		d.quars = nil
		return
	}
	seen := make(map[int]bool, len(d.cur.Exps))
	for i := range d.cur.Exps {
		seen[d.cur.Exps[i].ID] = true
	}
	for _, q := range d.quars {
		if seen[q.ID] {
			continue
		}
		seen[q.ID] = true
		o, err := avf.ParseOutcome(q.Effect)
		if err != nil {
			o = avf.Crash // line() validated Effect; defend anyway
		}
		d.cur.Exps = append(d.cur.Exps, core.Experiment{
			ID: q.ID, Outcome: o, Effect: o.String(),
			Quarantined: true, Detail: q.Reason,
		})
		d.cur.Counts.Add(o)
	}
	d.quars = nil
}

// ParseLog reads campaign logs back, re-aggregating counts from the
// experiment records. Multiple campaigns may be concatenated in one
// stream. Any malformed record is an error naming its line number.
func ParseLog(r io.Reader) ([]*core.CampaignResult, error) {
	res, _, err := parseLog(r, false)
	return res, err
}

// ParseLogLenient parses like ParseLog but tolerates one torn record at
// the very end of the stream — the signature of a crash between fsync
// batches. It returns the intact records and whether a torn tail was
// dropped. A malformed record that is not the final line, or a final line
// that is well-formed JSON with invalid content, is still an error: only
// truncation is forgiven, not corruption. These are exactly the semantics
// journal recovery (Store.Resume) applies.
func ParseLogLenient(r io.Reader) (res []*core.CampaignResult, truncated bool, err error) {
	return parseLog(r, true)
}

func parseLog(r io.Reader, lenient bool) ([]*core.CampaignResult, bool, error) {
	var dec logDecoder
	tail, err := scanLog(r, lenient, dec.line)
	if err != nil {
		return nil, false, fmt.Errorf("store: log %v", err)
	}
	dec.finish()
	return dec.out, tail.torn, nil
}
