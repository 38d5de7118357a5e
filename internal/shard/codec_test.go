package shard_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/shard"
)

// codecBatch is a journal batch like the ones a worker sends: experiment
// records of every shape the engine writes, s in each string field, and a
// span record riding along.
func codecBatch(s string, n int) shard.Batch {
	b := shard.Batch{Campaign: "c-" + s, Shard: "c:0:" + s, Lease: "ab12" + s, Seq: n, Final: n%2 == 1}
	for i := 0; i < n; i++ {
		e := &core.Experiment{ID: i*7 - 3, Cycle: uint64(i) * 104729, Bits: []int64{int64(i * 31), -5},
			Effect: "Masked", Cycles: 2_000_000 + uint64(i), Injected: i%3 != 0,
			Detail: fmt.Sprintf("regfile flip x%d%s", 1+i%3, s)}
		switch i % 5 {
		case 1:
			e.Effect, e.Bits, e.Why = "SDC", nil, "sdc:read"
		case 2:
			e.Effect, e.Quarantined, e.Bits = "Crash", true, []int64{}
		case 3:
			e.Detail, e.Why = "", s
		}
		b.Records = append(b.Records, shard.Record{Kind: shard.KindExp, Exp: e})
		if i == 2 {
			b.Records = append(b.Records, shard.Record{Kind: shard.KindSpan, Span: &obs.SpanRecord{
				Trace: "t", Span: "s" + s, Name: "engine.cluster", Attrs: map[string]string{"k": s}}})
		}
	}
	return b
}

// checkDecode requires DecodeBatch to read data as encoding/json's Decoder
// does: the same batch, or the same error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := shard.DecodeBatch(data)
	var want shard.Batch
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("decoding %q: error %v, encoding/json's %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q:\n got %+v\nwant %+v", data, got, want)
	}
}

// checkEncode requires EncodeBatch to write json.Marshal's bytes, which then
// decode as encoding/json decodes them.
func checkEncode(t *testing.T, b shard.Batch) {
	t.Helper()
	got, gotErr := shard.EncodeBatch(&b)
	want, wantErr := json.Marshal(b)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("encoding %+v:\n got %s (%v)\nwant %s (%v)", b, got, gotErr, want, wantErr)
	}
	checkDecode(t, got)
}

// FuzzBatchCodec holds the batch codec to encoding/json in both directions:
// any bytes decode to the batch, or fail with the error, that encoding/json's
// Decoder gives; a batch decoded from them, and one built around the fuzzed
// string, encode to json.Marshal's bytes.
func FuzzBatchCodec(f *testing.F) {
	for _, s := range []string{"", "a", "x<y>&\"\\\n\t", "é\u2028\xff", "\x7f"} {
		raw, _ := json.Marshal(codecBatch(s, 6))
		f.Add(raw, s)
	}
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":1,"records":null}`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":-0,"final":true,"records":[]} trailing`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":1,"records":[{"kind":"exp","exp":{"id":1,"cycle":2,"bits":[01],"effect":"SDC","cycles":3,"injected":true}}]}`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":1,"records":[{"kind":"exp","exp":{"id":1,"cycle":-2,"bits":[],"effect":"SDC","cycles":3,"injected":true}}]}`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":1,"records":[{"kind":"exp","exp":{"id":1,"cycle":2,"bits":null,"effect":"SDC","cycles":3,"injected":false,"quarantined":false},"kind":"span"}]}`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":99999999999999999999,"records":null}`), "")
	f.Add([]byte(`{"records":[{"kind":"exp"}],"seq":"x"}`), "")
	f.Add([]byte(`{"campaign":"c","shard":"s","lease":"l","seq":1,"records":[{"kind":"span","span":{"name":"]}\"[{"}},null]}`), "")
	f.Fuzz(func(t *testing.T, data []byte, s string) {
		checkDecode(t, data)
		var b shard.Batch
		if json.Unmarshal(data, &b) == nil {
			checkEncode(t, b)
		}
		checkEncode(t, codecBatch(s, len(s)%7))
	})
}

// BenchmarkBatchCodec times a batch of 320 experiment records and a span
// record, the shape a service-sharded campaign's batches have, per record.
func BenchmarkBatchCodec(b *testing.B) {
	batch := codecBatch("", 320)
	raw, err := shard.EncodeBatch(&batch)
	if err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch.Records)), "ns/record")
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shard.DecodeBatch(raw); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("decode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out shard.Batch
			if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shard.EncodeBatch(&batch); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
	b.Run("encode-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(batch); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
}
