package shard

import (
	"bytes"
	"encoding/json"
	"strconv"

	"gpufi/internal/core"
)

// This file is the journal batch's wire codec. The wire is what json.Marshal
// writes for a Batch; EncodeBatch writes those bytes and DecodeBatch reads
// them without reflection for the experiment records that make up nearly all
// of a batch. A record carrying a trace or a span is written by json.Marshal
// and read by json.Unmarshal, and any input the decoder does not recognise
// goes to encoding/json whole, so neither the wire nor an error answer
// depends on which path a batch took. FuzzBatchCodec holds both directions to
// encoding/json.

// EncodeBatch returns the bytes json.Marshal(b) returns.
func EncodeBatch(b *Batch) ([]byte, error) {
	buf := make([]byte, 0, 128+160*len(b.Records))
	buf = append(buf, `{"campaign":`...)
	buf = appendString(buf, b.Campaign)
	buf = append(buf, `,"shard":`...)
	buf = appendString(buf, b.Shard)
	buf = append(buf, `,"lease":`...)
	buf = appendString(buf, b.Lease)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, int64(b.Seq), 10)
	if b.Final {
		buf = append(buf, `,"final":true`...)
	}
	buf = append(buf, `,"records":`...)
	if b.Records == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i := range b.Records {
			if i > 0 {
				buf = append(buf, ',')
			}
			r := &b.Records[i]
			if r.Exp == nil || r.Trace != nil || r.Span != nil {
				raw, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				buf = append(buf, raw...)
				continue
			}
			buf = append(buf, `{"kind":`...)
			buf = appendString(buf, r.Kind)
			buf = append(buf, `,"exp":`...)
			buf = appendExperiment(buf, r.Exp)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// appendExperiment writes e's fields in core.Experiment's declaration order,
// as its JSON tags name and omit them.
func appendExperiment(buf []byte, e *core.Experiment) []byte {
	buf = append(buf, `{"id":`...)
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
	buf = appendString(buf, e.Effect)
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendUint(buf, e.Cycles, 10)
	buf = append(buf, `,"injected":`...)
	buf = strconv.AppendBool(buf, e.Injected)
	if e.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = appendString(buf, e.Detail)
	}
	if e.Quarantined {
		buf = append(buf, `,"quarantined":true`...)
	}
	if e.Why != "" {
		buf = append(buf, `,"why":`...)
		buf = appendString(buf, e.Why)
	}
	return append(buf, '}')
}

// appendString writes s quoted. Printable ASCII that json.Marshal does not
// escape is copied; any other string is json.Marshal's to write.
func appendString(buf []byte, s string) []byte {
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

// DecodeBatch reads a journal batch as json.NewDecoder(bytes.NewReader(data)).
// Decode does into a zero Batch, with the same result and the same error.
func DecodeBatch(data []byte) (Batch, error) {
	d := decoder{data: data}
	if b, ok := d.batch(); ok {
		return b, nil
	}
	var b Batch
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&b)
	return b, err
}

// decoder reads the bytes EncodeBatch writes: no whitespace, fields in
// declaration order, strings of printable ASCII without escapes, integers
// of at most 18 digits. Each method reports false on anything else, and the
// caller hands the batch — or, inside a record, the record — to
// encoding/json.
type decoder struct {
	data []byte
	at   int
	exps []core.Experiment // allocated a block at a time
	bits []int64
	seen map[string]string // common's values
}

// lit consumes s if the input continues with it.
func (d *decoder) lit(s string) bool {
	if len(d.data)-d.at < len(s) || string(d.data[d.at:d.at+len(s)]) != s {
		return false
	}
	d.at += len(s)
	return true
}

// char consumes c if the input continues with it.
func (d *decoder) char(c byte) bool {
	if d.at < len(d.data) && d.data[d.at] == c {
		d.at++
		return true
	}
	return false
}

// raw consumes a string and returns its bytes, unquoted.
func (d *decoder) raw() ([]byte, bool) {
	if !d.char('"') {
		return nil, false
	}
	for i := d.at; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[d.at:i]
			d.at = i + 1
			return s, true
		case c < 0x20 || c > 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) str() (string, bool) {
	s, ok := d.raw()
	return string(s), ok
}

// common is str for a field whose values repeat from record to record — the
// kind, the outcome, the injection detail: each distinct value of a batch is
// allocated once.
func (d *decoder) common() (string, bool) {
	s, ok := d.raw()
	if v, hit := d.seen[string(s)]; hit {
		return v, ok
	}
	v := string(s)
	if d.seen == nil {
		d.seen = make(map[string]string)
	}
	d.seen[v] = v
	return v, ok
}

// uint consumes an unsigned integer without leading zeros.
func (d *decoder) uint() (uint64, bool) {
	start, v := d.at, uint64(0)
	for d.at < len(d.data) && d.data[d.at] >= '0' && d.data[d.at] <= '9' {
		v = v*10 + uint64(d.data[d.at]-'0')
		d.at++
	}
	n := d.at - start
	return v, n > 0 && n <= 18 && (n == 1 || d.data[start] != '0')
}

func (d *decoder) int() (int64, bool) {
	neg := d.char('-')
	v, ok := d.uint()
	if neg {
		return -int64(v), ok
	}
	return int64(v), ok
}

func (d *decoder) bool() (v, ok bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// batch reads the whole input as one Batch.
func (d *decoder) batch() (b Batch, ok bool) {
	if !d.lit(`{"campaign":`) {
		return b, false
	}
	if b.Campaign, ok = d.str(); !ok || !d.lit(`,"shard":`) {
		return b, false
	}
	if b.Shard, ok = d.str(); !ok || !d.lit(`,"lease":`) {
		return b, false
	}
	if b.Lease, ok = d.str(); !ok || !d.lit(`,"seq":`) {
		return b, false
	}
	seq, ok := d.int()
	if b.Seq = int(seq); !ok || int64(b.Seq) != seq {
		return b, false
	}
	b.Final = d.lit(`,"final":true`)
	if !d.lit(`,"records":`) {
		return b, false
	}
	if !d.lit("null") {
		if !d.char('[') {
			return b, false
		}
		b.Records = make([]Record, 0, len(d.data)/128)
		for !d.char(']') {
			if len(b.Records) > 0 && !d.char(',') {
				return b, false
			}
			r, ok := d.record()
			if !ok {
				return b, false
			}
			b.Records = append(b.Records, r)
		}
	}
	return b, d.char('}') && d.at == len(d.data)
}

// record reads one element of the records array: an experiment record
// itself, any other through json.Unmarshal.
func (d *decoder) record() (r Record, ok bool) {
	start := d.at
	if d.lit(`{"kind":`) {
		if r.Kind, ok = d.common(); ok && d.lit(`,"exp":`) {
			if r.Exp, ok = d.experiment(); ok && d.char('}') {
				return r, true
			}
		}
	}
	d.at = start
	end, ok := skipObject(d.data, start)
	if !ok {
		return Record{}, false
	}
	var other Record // not r: taking its address would put every record on the heap
	if json.Unmarshal(d.data[start:end], &other) != nil {
		return Record{}, false
	}
	d.at = end
	return other, true
}

// experiment reads a core.Experiment object.
func (d *decoder) experiment() (*core.Experiment, bool) {
	if len(d.exps) == 0 {
		d.exps = make([]core.Experiment, 64)
	}
	e := &d.exps[0]
	d.exps = d.exps[1:]
	if !d.lit(`{"id":`) {
		return nil, false
	}
	id, ok := d.int()
	if e.ID = int(id); !ok || int64(e.ID) != id || !d.lit(`,"cycle":`) {
		return nil, false
	}
	if e.Cycle, ok = d.uint(); !ok || !d.lit(`,"bits":`) {
		return nil, false
	}
	if e.Bits, ok = d.int64s(); !ok || !d.lit(`,"effect":`) {
		return nil, false
	}
	if e.Effect, ok = d.common(); !ok || !d.lit(`,"cycles":`) {
		return nil, false
	}
	if e.Cycles, ok = d.uint(); !ok || !d.lit(`,"injected":`) {
		return nil, false
	}
	if e.Injected, ok = d.bool(); !ok {
		return nil, false
	}
	if d.lit(`,"detail":`) {
		if e.Detail, ok = d.common(); !ok {
			return nil, false
		}
	}
	if d.lit(`,"quarantined":`) {
		if e.Quarantined, ok = d.bool(); !ok {
			return nil, false
		}
	}
	if d.lit(`,"why":`) {
		if e.Why, ok = d.common(); !ok {
			return nil, false
		}
	}
	return e, d.char('}')
}

// int64s reads a []int64: nil for null, empty and non-nil for [].
func (d *decoder) int64s() ([]int64, bool) {
	if d.lit("null") {
		return nil, true
	}
	if !d.char('[') {
		return nil, false
	}
	start := len(d.bits)
	for !d.char(']') {
		if len(d.bits) > start && !d.char(',') {
			return nil, false
		}
		v, ok := d.int()
		if !ok {
			return nil, false
		}
		if len(d.bits) == cap(d.bits) {
			// A new block: what earlier records hold stays where it is.
			grown := make([]int64, len(d.bits)-start, max(256, 2*(len(d.bits)-start)))
			copy(grown, d.bits[start:])
			d.bits, start = grown, 0
		}
		d.bits = append(d.bits, v)
	}
	n := len(d.bits)
	if n == start {
		return []int64{}, true
	}
	return d.bits[start:n:n], true
}

// skipObject returns the end of the JSON object that starts at data[i],
// nothing else checked: encoding/json checks the object it delimits.
func skipObject(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, true
			}
		}
	}
	return 0, false
}
