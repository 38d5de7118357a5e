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
	"strconv"

	"gpufi/internal/avf"
	"gpufi/internal/core"
)

// The log format is JSON lines: one header record per campaign followed by
// one record per experiment. The parser module reads these back and
// aggregates the fault-effect statistics — the third of the paper's three
// gpuFI-4 modules (bash + text logs there, structured logs here). The same
// codec serves one-shot log files (gpufi -log) and the durable campaign
// journals of this package, and its experiment half (below) is the shard
// wire's too.

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

// The record constructors are the one encoding of the header and
// quarantine records; an experiment record is appendRecord's.
func headerRecord(h Header) logHeader { return logHeader{Type: "campaign", Header: h} }

func quarantineRecord(exp core.Experiment) logQuar {
	return logQuar{Type: "quarantine", ID: exp.ID, Effect: exp.Outcome.String(), Reason: exp.Detail}
}

// expPrefix opens an experiment record; AppendExperiment writes the rest of
// the object but its closing brace.
const expPrefix = `{"type":"exp",`

// appendRecord appends rec's line as json.NewEncoder writes it: json.Marshal
// plus a newline. A *core.Experiment is written as the experiment record,
// through AppendExperiment; any other record through json.Marshal.
func appendRecord(buf []byte, rec any) ([]byte, error) {
	if e, ok := rec.(*core.Experiment); ok {
		return append(AppendExperiment(append(buf, expPrefix...), e), "}\n"...), nil
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	return append(append(buf, raw...), '\n'), nil
}

// WriteLog serializes a campaign result (header + experiments) to w.
func WriteLog(w io.Writer, res *core.CampaignResult) error {
	buf, _ := appendRecord(nil, headerRecord(Header{App: res.App, GPU: res.GPU, Kernel: res.Kernel,
		Structure: res.Structure, Bits: res.Bits, Runs: res.Runs, Seed: res.Seed})) // a header always marshals
	for i := range res.Exps {
		buf, _ = appendRecord(buf, &res.Exps[i])
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("store: write log: %v", err)
	}
	return nil
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

	r Reader // reads experiment lines; kept for its interned strings and bits block
}

// line decodes one non-empty record line. The reported error carries no
// line number; callers wrap it with their own position information.
func (d *logDecoder) line(raw []byte) error {
	if d.cur != nil && d.exp(raw) {
		return nil
	}
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
		var e core.Experiment // "type" is no field of it
		if err := json.Unmarshal(raw, &e); err != nil {
			return err
		}
		o, err := avf.ParseOutcome(e.Effect)
		if err != nil {
			return err
		}
		e.Outcome = o
		d.cur.Exps = append(d.cur.Exps, e)
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

// exp reads an experiment line into the next slot of the current campaign.
// It keeps nothing and reports false on a line the Reader refuses or whose
// outcome does not parse: encoding/json reads that one, so the error and
// scanLog's torn-tail verdict are its.
func (d *logDecoder) exp(raw []byte) bool {
	d.r.Data, d.r.At = raw, 0
	if !d.r.Lit(expPrefix) {
		return false
	}
	exps := append(d.cur.Exps, core.Experiment{})
	e := &exps[len(exps)-1]
	if !d.r.Experiment(e) || !d.r.Lit("}") || d.r.At != len(raw) {
		return false
	}
	o, err := avf.ParseOutcome(e.Effect)
	if err != nil {
		return false
	}
	e.Outcome = o
	d.cur.Exps = exps
	d.cur.Counts.Add(o)
	return true
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

// The experiment codec, the one codec of an experiment's fields: for the
// journal (appendRecord, logDecoder.exp), WriteLog and the shard wire
// (shard.EncodeBatch, shard.DecodeBatch). FuzzCodecRecord and shard's
// FuzzBatchCodec hold both directions to encoding/json.

// AppendExperiment appends e's fields in core.Experiment's declaration order,
// as its JSON tags name and omit them, without the object's braces.
func AppendExperiment(buf []byte, e *core.Experiment) []byte {
	buf = append(buf, `"id":`...)
	buf = strconv.AppendInt(buf, int64(e.ID), 10)
	buf = append(buf, `,"cycle":`...)
	buf = strconv.AppendUint(buf, e.Cycle, 10)
	buf = append(buf, `,"bits":`...)
	if e.Bits == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, v := range e.Bits {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"effect":`...)
	buf = AppendString(buf, e.Effect)
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendUint(buf, e.Cycles, 10)
	buf = append(buf, `,"injected":`...)
	buf = strconv.AppendBool(buf, e.Injected)
	if e.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = AppendString(buf, e.Detail)
	}
	if e.Quarantined {
		buf = append(buf, `,"quarantined":true`...)
	}
	if e.Why != "" {
		buf = append(buf, `,"why":`...)
		buf = AppendString(buf, e.Why)
	}
	return buf
}

// AppendString appends s quoted as json.Marshal quotes it. Printable ASCII
// that json.Marshal does not escape is copied; any other string is
// json.Marshal's to write.
func AppendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			return append(buf, raw...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// Reader reads Data from At in the layout AppendExperiment and AppendString
// write: no whitespace, fields in declaration order, strings of ASCII
// without escapes, integers of at most 18 digits. Each method reports false
// on anything else, and the caller hands the input to encoding/json. One
// Reader kept across inputs allocates each distinct value of Common once
// and int64 lists a block at a time.
type Reader struct {
	Data []byte
	At   int
	bits []int64
	seen map[string]string // Common's values
}

// Lit consumes s if the input continues with it.
func (r *Reader) Lit(s string) bool {
	if len(r.Data)-r.At < len(s) || string(r.Data[r.At:r.At+len(s)]) != s {
		return false
	}
	r.At += len(s)
	return true
}

// raw consumes a string and returns its bytes, unquoted.
func (r *Reader) raw() ([]byte, bool) {
	if !r.Lit(`"`) {
		return nil, false
	}
	for i := r.At; i < len(r.Data); i++ {
		switch c := r.Data[i]; {
		case c == '"':
			s := r.Data[r.At:i]
			r.At = i + 1
			return s, true
		case c < 0x20 || c > 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// Common consumes a string. Its values are interned: the fields it reads
// repeat from record to record (the kind, the outcome, the injection
// detail), and each distinct value is allocated once.
func (r *Reader) Common() (string, bool) {
	s, ok := r.raw()
	if v, hit := r.seen[string(s)]; hit {
		return v, ok
	}
	v := string(s)
	if r.seen == nil {
		r.seen = make(map[string]string)
	}
	r.seen[v] = v
	return v, ok
}

// uint consumes an unsigned integer without leading zeros.
func (r *Reader) uint() (uint64, bool) {
	start, v := r.At, uint64(0)
	for r.At < len(r.Data) && r.Data[r.At] >= '0' && r.Data[r.At] <= '9' {
		v = v*10 + uint64(r.Data[r.At]-'0')
		r.At++
	}
	n := r.At - start
	return v, n > 0 && n <= 18 && (n == 1 || r.Data[start] != '0')
}

// Int consumes a signed integer.
func (r *Reader) Int() (int64, bool) {
	neg := r.Lit("-")
	v, ok := r.uint()
	if neg {
		return -int64(v), ok
	}
	return int64(v), ok
}

func (r *Reader) bool() (v, ok bool) {
	if r.Lit("true") {
		return true, true
	}
	return false, r.Lit("false")
}

// Experiment reads the fields AppendExperiment writes into e, which must be
// the zero Experiment.
func (r *Reader) Experiment(e *core.Experiment) bool {
	if !r.Lit(`"id":`) {
		return false
	}
	id, ok := r.Int()
	if e.ID = int(id); !ok || int64(e.ID) != id || !r.Lit(`,"cycle":`) {
		return false
	}
	if e.Cycle, ok = r.uint(); !ok || !r.Lit(`,"bits":`) {
		return false
	}
	if e.Bits, ok = r.int64s(); !ok || !r.Lit(`,"effect":`) {
		return false
	}
	if e.Effect, ok = r.Common(); !ok || !r.Lit(`,"cycles":`) {
		return false
	}
	if e.Cycles, ok = r.uint(); !ok || !r.Lit(`,"injected":`) {
		return false
	}
	if e.Injected, ok = r.bool(); !ok {
		return false
	}
	if r.Lit(`,"detail":`) {
		if e.Detail, ok = r.Common(); !ok {
			return false
		}
	}
	if r.Lit(`,"quarantined":`) {
		if e.Quarantined, ok = r.bool(); !ok {
			return false
		}
	}
	if r.Lit(`,"why":`) {
		if e.Why, ok = r.Common(); !ok {
			return false
		}
	}
	return true
}

// int64s reads a []int64: nil for null, empty and non-nil for [].
func (r *Reader) int64s() ([]int64, bool) {
	if r.Lit("null") {
		return nil, true
	}
	if !r.Lit("[") {
		return nil, false
	}
	start := len(r.bits)
	for !r.Lit("]") {
		if len(r.bits) > start && !r.Lit(",") {
			return nil, false
		}
		v, ok := r.Int()
		if !ok {
			return nil, false
		}
		if len(r.bits) == cap(r.bits) {
			// A new block: what earlier records hold stays where it is.
			grown := make([]int64, len(r.bits)-start, max(256, 2*(len(r.bits)-start)))
			copy(grown, r.bits[start:])
			r.bits, start = grown, 0
		}
		r.bits = append(r.bits, v)
	}
	n := len(r.bits)
	if n == start {
		return []int64{}, true
	}
	return r.bits[start:n:n], true
}
