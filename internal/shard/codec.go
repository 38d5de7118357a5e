package shard

import (
	"bytes"
	"encoding/json"
	"strconv"

	"gpufi/internal/core"
	"gpufi/internal/store"
)

// This file is the journal batch's wire codec: the batch envelope around
// the store's experiment codec. The wire is what json.Marshal writes for a
// Batch. A record carrying a trace or a span goes through json.Marshal and
// json.Unmarshal, and any input the decoder does not recognise goes to
// encoding/json whole, so neither the wire nor an error answer depends on
// which path a batch took. FuzzBatchCodec holds both directions to
// encoding/json.

// EncodeBatch returns the bytes json.Marshal(b) returns.
func EncodeBatch(b *Batch) ([]byte, error) {
	buf := make([]byte, 0, 128+160*len(b.Records))
	buf = append(buf, `{"campaign":`...)
	buf = store.AppendString(buf, b.Campaign)
	buf = append(buf, `,"shard":`...)
	buf = store.AppendString(buf, b.Shard)
	buf = append(buf, `,"lease":`...)
	buf = store.AppendString(buf, b.Lease)
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
			buf = store.AppendString(buf, r.Kind)
			buf = append(buf, `,"exp":{`...)
			buf = store.AppendExperiment(buf, r.Exp)
			buf = append(buf, "}}"...)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}'), nil
}

// DecodeBatch reads a journal batch as json.NewDecoder(bytes.NewReader(data)).
// Decode does into a zero Batch, with the same result and the same error.
func DecodeBatch(data []byte) (Batch, error) {
	d := decoder{Reader: store.Reader{Data: data}}
	if b, ok := d.batch(); ok {
		return b, nil
	}
	var b Batch
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&b)
	return b, err
}

// decoder reads the bytes EncodeBatch writes; on anything else the batch —
// or, inside a record, the record — goes to encoding/json.
type decoder struct {
	store.Reader
	exps []core.Experiment // allocated a block at a time
}

// batch reads the whole input as one Batch.
func (d *decoder) batch() (b Batch, ok bool) {
	if !d.Lit(`{"campaign":`) {
		return b, false
	}
	if b.Campaign, ok = d.Common(); !ok || !d.Lit(`,"shard":`) {
		return b, false
	}
	if b.Shard, ok = d.Common(); !ok || !d.Lit(`,"lease":`) {
		return b, false
	}
	if b.Lease, ok = d.Common(); !ok || !d.Lit(`,"seq":`) {
		return b, false
	}
	seq, ok := d.Int()
	if b.Seq = int(seq); !ok || int64(b.Seq) != seq {
		return b, false
	}
	b.Final = d.Lit(`,"final":true`)
	if !d.Lit(`,"records":`) {
		return b, false
	}
	if !d.Lit("null") {
		if !d.Lit("[") {
			return b, false
		}
		b.Records = make([]Record, 0, len(d.Data)/128)
		for !d.Lit("]") {
			if len(b.Records) > 0 && !d.Lit(",") {
				return b, false
			}
			r, ok := d.record()
			if !ok {
				return b, false
			}
			b.Records = append(b.Records, r)
		}
	}
	return b, d.Lit("}") && d.At == len(d.Data)
}

// record reads one element of the records array: an experiment record
// itself, any other through json.Unmarshal.
func (d *decoder) record() (r Record, ok bool) {
	start := d.At
	if d.Lit(`{"kind":`) {
		if r.Kind, ok = d.Common(); ok && d.Lit(`,"exp":{`) {
			if len(d.exps) == 0 {
				d.exps = make([]core.Experiment, 64)
			}
			r.Exp, d.exps = &d.exps[0], d.exps[1:]
			if d.Experiment(r.Exp) && d.Lit("}}") {
				return r, true
			}
		}
	}
	d.At = start
	end, ok := skipObject(d.Data, start)
	if !ok {
		return Record{}, false
	}
	var other Record // not r: taking its address would put every record on the heap
	if json.Unmarshal(d.Data[start:end], &other) != nil {
		return Record{}, false
	}
	d.At = end
	return other, true
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
