package store

import (
	"bytes"
	"testing"

	"gpufi/internal/avf"
	"gpufi/internal/core"
)

// BenchmarkJournalCodec times the store's experiment codec per record of a
// 100,000-record campaign point shaped like the ledger's campaign-late
// results (one-bit register-file flips, about 87 % Masked): WriteLog of the
// result, ParseLog of those bytes, and Store.Resume of a journal holding the
// same records. It names nothing older journals' code lacks, so it runs on
// an earlier commit when copied there.
func BenchmarkJournalCodec(b *testing.B) {
	const n = 100_000
	spec := Spec{App: "BP", GPU: "RTX2060", Kernel: "bp_adjust", Structure: "regfile", Runs: n, Bits: 1, Seed: 7}
	res := &core.CampaignResult{App: spec.App, GPU: spec.GPU, Kernel: spec.Kernel,
		Structure: spec.Structure, Bits: spec.Bits, Runs: n, Seed: spec.Seed}
	for i := 0; i < n; i++ {
		o := avf.Masked
		switch {
		case i%100 >= 95:
			o = avf.Crash
		case i%100 >= 87:
			o = avf.SDC
		}
		res.Exps = append(res.Exps, core.Experiment{ID: i, Cycle: uint64(4000 + i*7919%2600),
			Bits: []int64{int64(i * 37 % 1024)}, Outcome: o, Effect: o.String(), Cycles: 6657,
			Injected: true, Detail: "regfile flip x1"})
		res.Counts.Add(o)
	}
	var log bytes.Buffer
	if err := WriteLog(&log, res); err != nil {
		b.Fatal(err)
	}
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	}

	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteLog(&buf, res); err != nil {
				b.Fatal(err)
			}
		}
		if !bytes.Equal(buf.Bytes(), log.Bytes()) {
			b.Fatal("WriteLog is not deterministic")
		}
		perRecord(b)
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := ParseLog(bytes.NewReader(log.Bytes()))
			if err != nil || len(out) != 1 || out[0].Counts != res.Counts {
				b.Fatalf("parsed %d campaigns (%v)", len(out), err)
			}
		}
		perRecord(b)
	})
	b.Run("resume", func(b *testing.B) {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		st.BatchSize = n // one fsync, at Close: the set-up is not what is timed
		c, err := st.Create("bench", spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range res.Exps {
			if err := c.Append(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := st.Resume("bench")
			if err != nil {
				b.Fatal(err)
			}
			if len(c.Prior) != n || c.Counts != res.Counts {
				b.Fatalf("resumed %d records, counts %+v", len(c.Prior), c.Counts)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
}
