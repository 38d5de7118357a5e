package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// openedLog is one of the store's logs as its production opener returns
// it: how many intact records the opener recovered (-1 for the logs it
// does not parse), whether it cut a torn tail, and the typed append and
// close of that log.
type openedLog struct {
	n          int
	recs       any // the recovered records themselves, when n >= 0
	torn       bool
	appendNext func() error
	close      func() error
}

// logFixture is one row of the recovery table: a log file, how to record a
// reference copy of it through the production writer, and how production
// re-opens it after a crash.
type logFixture struct {
	file string
	// header counts the leading records the opener re-writes itself when
	// they are lost (the journal's campaign header) and does not report in
	// openedLog.n.
	header int
	record func(t *testing.T, st *Store, id string)
	// written returns the first n records record wrote, in openedLog.recs'
	// type (nil for the logs whose opener does not parse them).
	written func(n int) any
	open    func(st *Store, id string) (*openedLog, error)
	// finish, when set, completes the damaged log the way production would
	// and checks the result against orig. It runs at the record boundaries
	// only: it is too slow for every offset.
	finish func(t *testing.T, st *Store, id string, orig []byte)
}

func logFixtures(t testing.TB) []logFixture {
	// The journal row is a real campaign, so that finish can resume it with
	// Store.Run. One worker keeps completion order, and so journal bytes,
	// deterministic.
	spec := vaSpec(6, 3)
	spec.Workers = 1
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	var journaled []core.Experiment // the reference journal's records, in file order

	return []logFixture{{
		file:   journalFile,
		header: 1,
		record: func(t *testing.T, st *Store, id string) {
			res, err := st.Run(nil, id, spec, prof, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(st.Dir(), id, doneFile)); err != nil {
				t.Fatal(err)
			}
			f, err := st.OpenLog(id)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			logs, err := ParseLog(f)
			if err != nil || len(logs) != 1 || logs[0].Counts != res.Counts {
				t.Fatalf("reference journal: %v %v", logs, err)
			}
			journaled = logs[0].Exps
		},
		written: func(n int) any { return journaled[:n] },
		open: func(st *Store, id string) (*openedLog, error) {
			info, err := st.Inspect(id)
			if err != nil {
				return nil, fmt.Errorf("inspect: %v", err)
			}
			c, err := st.Resume(id)
			if err != nil {
				return nil, err
			}
			if info.Truncated != c.Truncated || info.Completed != len(c.Prior) {
				return nil, fmt.Errorf("Inspect saw torn=%v n=%d, Resume torn=%v n=%d",
					info.Truncated, info.Completed, c.Truncated, len(c.Prior))
			}
			return &openedLog{n: len(c.Prior), recs: c.Prior, torn: c.Truncated, close: c.Close, appendNext: func() error {
				return c.Append(core.Experiment{ID: 1000 + len(c.Prior), Outcome: avf.Masked, Effect: "Masked"})
			}}, nil
		},
		// The lost experiments simply re-run, and the finished journal is
		// byte-identical to the uninterrupted one.
		finish: func(t *testing.T, st *Store, id string, orig []byte) {
			if _, err := st.Run(nil, id, spec, prof, nil); err != nil {
				t.Fatalf("run to completion: %v", err)
			}
			if err := os.Remove(filepath.Join(st.Dir(), id, doneFile)); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Inspect(id); err != nil {
				t.Fatalf("finished journal unreadable: %v", err)
			}
			got, err := os.ReadFile(filepath.Join(st.Dir(), id, journalFile))
			if err != nil || !bytes.Equal(got, orig) {
				t.Fatalf("finished journal differs from the uninterrupted one (%v):\n got: %s\nwant: %s", err, got, orig)
			}
		},
	}, {
		file:    controlFile,
		written: func(n int) any { return walRecs()[:n] },
		record: func(t *testing.T, st *Store, id string) {
			openWALCampaign(t, st, id)
			_, _, w, err := st.OpenControlWAL(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range walRecs() {
				if err := w.AppendSync(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(st *Store, id string) (*openedLog, error) {
			recs, torn, w, err := st.OpenControlWAL(id)
			if err != nil {
				return nil, err
			}
			return &openedLog{n: len(recs), recs: recs, torn: torn, close: w.Close, appendNext: func() error {
				return w.AppendSync(ControlRecord{Kind: CtlGrant, Shard: "x:1:0", Lease: "l", Epoch: 9})
			}}, nil
		},
	}, {
		file: spansFile,
		record: func(t *testing.T, st *Store, id string) {
			l, err := st.SpanWriter(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := l.Append(obs.SpanRecord{Trace: "t1", Span: fmt.Sprint("s", i), Name: "worker.shard",
					Node: "w1", StartUS: int64(1000 * i), DurUS: 250, Attrs: map[string]string{"shard": "a:1:0"}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(st *Store, id string) (*openedLog, error) {
			l, err := st.SpanWriter(id)
			if err != nil {
				return nil, err
			}
			return &openedLog{n: -1, close: l.Close, appendNext: func() error {
				return l.Append(obs.SpanRecord{Trace: "t1", Span: "r", Name: "coordinator.recovery"})
			}}, nil
		},
	}, {
		file: tracesFile,
		record: func(t *testing.T, st *Store, id string) {
			c, err := st.Create(id, vaSpec(4, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EnableTraces(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if err := c.AppendTrace(core.ExperimentTrace{ID: i, Effect: "Masked", Why: "masked:never-read",
					Events: []sim.TraceEvent{{Ev: "inject", Cycle: 7, Cell: "r3@t17"}, {Ev: "classify", Outcome: "Masked"}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(st *Store, id string) (*openedLog, error) {
			c, err := st.Resume(id)
			if err != nil {
				return nil, err
			}
			if err := c.EnableTraces(); err != nil {
				c.Close()
				return nil, err
			}
			return &openedLog{n: -1, close: c.Close, appendNext: func() error {
				return c.AppendTrace(core.ExperimentTrace{ID: 9, Effect: "SDC", Events: []sim.TraceEvent{{Ev: "classify"}}})
			}}, nil
		},
	}}
}

// oneRecordLine reports whether b is exactly one newline-terminated JSON
// value.
func oneRecordLine(b []byte) bool {
	return bytes.Count(b, []byte("\n")) == 1 && b[len(b)-1] == '\n' && json.Valid(b)
}

// lineEnds returns the offset just past every newline of data, after a
// leading 0: the record boundaries of a log.
func lineEnds(data []byte) []int {
	ends := []int{0}
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// TestLogRecoveryEveryOffset is the exhaustive crash simulation for the
// store's four logs: a recorded file is truncated at EVERY byte offset, and
// at each one the production opener must succeed, keep exactly the longest
// intact prefix of the original (a record that lost only its newline is
// intact), leave the file so that the next append lands on a line of its
// own, and on a second open see that prefix plus the one new record.
func TestLogRecoveryEveryOffset(t *testing.T) {
	for _, fx := range logFixtures(t) {
		t.Run(fx.file, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			fx.record(t, st, "c")
			path := filepath.Join(st.Dir(), "c", fx.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ends := lineEnds(orig)
			if len(ends) < 5 || ends[len(ends)-1] != len(orig) {
				t.Fatalf("reference log is not a few complete lines: %q", orig)
			}
			read := func(cut int) []byte {
				t.Helper()
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("cut at byte %d: %v", cut, err)
				}
				return got
			}

			for cut := 0; cut <= len(orig); cut++ {
				// What must survive: the lines wholly before the cut, plus the
				// one the cut stripped of nothing but its newline.
				lines := 0
				for lines+1 < len(ends) && ends[lines+1] <= cut+1 {
					lines++
				}
				wantTorn := cut > ends[lines]
				keep := ends[max(lines, fx.header)]
				wantN := max(lines, fx.header) - fx.header

				if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				l, err := fx.open(st, "c")
				if err != nil {
					t.Fatalf("cut at byte %d: %v", cut, err)
				}
				if l.n >= 0 && (l.n != wantN || l.torn != wantTorn) {
					t.Fatalf("cut at byte %d: %d records torn=%v, want %d torn=%v", cut, l.n, l.torn, wantN, wantTorn)
				}
				if l.n > 0 && !reflect.DeepEqual(l.recs, fx.written(l.n)) {
					t.Fatalf("cut at byte %d: recovered records are not the first %d written: %+v", cut, l.n, l.recs)
				}
				if got := read(cut); !bytes.Equal(got, orig[:keep]) {
					t.Fatalf("cut at byte %d: opened log is not the intact prefix:\n got: %q\nwant: %q", cut, got, orig[:keep])
				}
				if err := l.appendNext(); err != nil {
					t.Fatalf("cut at byte %d: append after recovery: %v", cut, err)
				}
				if err := l.close(); err != nil {
					t.Fatalf("cut at byte %d: close: %v", cut, err)
				}
				got := read(cut)
				if !bytes.HasPrefix(got, orig[:keep]) || !oneRecordLine(got[keep:]) {
					t.Fatalf("cut at byte %d: append did not land on a line of its own: %q", cut, got)
				}

				again, err := fx.open(st, "c")
				if err != nil {
					t.Fatalf("cut at byte %d: reopen: %v", cut, err)
				}
				if again.n >= 0 && (again.n != wantN+1 || again.torn) {
					t.Fatalf("cut at byte %d: reopen got %d records torn=%v, want %d clean", cut, again.n, again.torn, wantN+1)
				}
				if err := again.close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(read(cut), got) {
					t.Fatalf("cut at byte %d: reopening an intact log changed it", cut)
				}

				next := ends[min(lines+1, len(ends)-1)]
				if fx.finish != nil && (cut <= ends[lines]+1 || cut == (ends[lines]+next)/2) {
					if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					fx.finish(t, st, "c", orig)
				}
			}
		})
	}
}

// TestJournalCorruption: see testLogCorruption (TestControlWALCorruption in
// wal_test.go is the WAL's).
func TestJournalCorruption(t *testing.T) { testLogCorruption(t, journalFile) }

func TestObservabilityLogsJudgeOnlyTheTail(t *testing.T) {
	testLogCorruption(t, spansFile)
	testLogCorruption(t, tracesFile)
}

// testLogCorruption pins, for one log, the difference between crash damage
// and corruption. In the logs that are ground truth a malformed record that
// is NOT the tail is never silently dropped: opening fails and leaves the
// file alone. The observability logs are not parsed on open, so only their
// tail is judged.
func testLogCorruption(t *testing.T, file string) {
	hdr, exp := hdrA+"\n", expLine(0, "Masked")+"\n"
	corrupt := map[string][]struct{ name, content string }{
		controlFile: {
			{"garbage mid-file", `{"kind":"plan","gen":1}` + "\n" + `{"kind":` + "\n" + `{"kind":"plan_done","gen":1}` + "\n"},
			{"kindless record", `{"kind":"plan","gen":1}` + "\n" + `{"gen":2}` + "\n"},
			{"kindless tail without newline", `{"kind":"plan","gen":1}` + "\n" + `{"gen":2}`},
			{"valid json, wrong shape", `[1,2,3]` + "\n" + `{"kind":"plan","gen":1}` + "\n"},
		},
		journalFile: {
			{"garbage mid-file", hdr + `{"type":` + "\n" + exp},
			{"unknown record type", hdr + `{"type":"what"}` + "\n"},
			{"bad outcome on the final line", hdr + `{"type":"exp","id":0,"effect":"Nope"}`},
			{"valid json, wrong shape", `[1,2,3]` + "\n" + hdr},
			{"record before header", exp},
			{"two campaigns", hdr + hdr},
			{"another campaign's journal", hdrB + "\n"},
		},
	}
	intact := map[string]string{
		// Blank lines are tolerated anywhere.
		controlFile: "\n" + `{"kind":"plan","gen":1}` + "\n\n" + `{"kind":"plan_done","gen":1}` + "\n\n",
		journalFile: "\n" + hdr + "\n\n" + exp + "\n",
		// Damage that is not at the tail is none of the opener's business.
		spansFile:  `{"trace":"t1","span":"a"` + "\n" + `{"trace":"t1","span":"b","name":"x","start_us":1,"dur_us":1}` + "\n",
		tracesFile: "not json\n" + `{"id":0,"effect":"Masked","events":[]}` + "\n",
	}
	var fx logFixture
	for _, fx = range logFixtures(t) {
		if fx.file == file {
			break
		}
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	openWALCampaign(t, st, "c")
	path := filepath.Join(st.Dir(), "c", file)
	for _, tc := range corrupt[file] {
		if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := fx.open(st, "c"); err == nil {
			l.close()
			t.Errorf("%s: %s: corruption not rejected", file, tc.name)
		}
		if got, _ := os.ReadFile(path); string(got) != tc.content {
			t.Errorf("%s: %s: rejected log was modified: %q", file, tc.name, got)
		}
	}
	if err := os.WriteFile(path, []byte(intact[file]), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := fx.open(st, "c")
	if err != nil {
		t.Fatal(err)
	}
	if wantN := 2 - fx.header; l.torn || l.n >= 0 && l.n != wantN {
		t.Errorf("%s: intact log: %d records torn=%v, want %d clean", file, l.n, l.torn, wantN)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != intact[file] {
		t.Errorf("%s: intact log was modified: %q", file, got)
	}
}

// FuzzLogRecover feeds arbitrary bytes to every opener as the log file a
// crash left behind. Whatever they are, the opener must not panic; it
// either rejects the file as corrupt and leaves it alone, or keeps a prefix
// of it — dropping at most one syntactically torn final line — after which
// one append adds exactly one line and a second open reads one record more.
func FuzzLogRecover(f *testing.F) {
	f.Add([]byte(`{"kind":"plan","gen":1}` + "\n" + `{"kind":"plan_done","gen":1}` + "\n"))
	f.Add([]byte(`{"kind":"plan","gen":1}` + "\n" + `{"kind":"gra`))
	f.Add([]byte(`{"type":"campaign","runs":4,"seed":1}` + "\n" + `{"type":"exp","id":0,"effect":"SDC"}`))
	fixtures := logFixtures(f)
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	// One campaign per log, named after it, so that damage to one log never
	// reaches another's opener.
	id := func(fx logFixture) string { return strings.TrimSuffix(fx.file, ".jsonl") }
	headers := map[string][]byte{}
	for _, fx := range fixtures {
		openWALCampaign(f, st, id(fx))
		if fx.header > 0 {
			if headers[fx.file], err = os.ReadFile(filepath.Join(st.Dir(), id(fx), fx.file)); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fx := range fixtures {
			path := filepath.Join(st.Dir(), id(fx), fx.file)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := fx.open(st, id(fx))
			if err != nil {
				if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
					t.Fatalf("%s: rejected log was modified:\n got: %q\nfrom: %q", fx.file, got, data)
				}
				continue
			}
			opened, _ := os.ReadFile(path)
			kept := opened
			if !bytes.HasPrefix(data, kept) { // not cut: repaired, or given its header back
				kept = bytes.TrimSuffix(kept, headers[fx.file])
				if !bytes.HasPrefix(data, kept) {
					kept = bytes.TrimSuffix(kept, []byte("\n"))
				}
			}
			dropped := bytes.TrimSpace(bytes.TrimPrefix(data, kept))
			if !bytes.HasPrefix(data, kept) || bytes.IndexByte(dropped, '\n') >= 0 || len(dropped) > 0 && json.Valid(dropped) {
				t.Fatalf("%s: opened log is not the file minus one torn tail:\n got: %q\nfrom: %q", fx.file, opened, data)
			}
			if err := l.appendNext(); err != nil {
				t.Fatalf("%s: append after recovery: %v", fx.file, err)
			}
			if err := l.close(); err != nil {
				t.Fatalf("%s: close: %v", fx.file, err)
			}
			got, _ := os.ReadFile(path)
			if !bytes.HasPrefix(got, opened) || !oneRecordLine(got[len(opened):]) ||
				len(opened) > 0 && opened[len(opened)-1] != '\n' {
				t.Fatalf("%s: append did not land on a line of its own:\n got: %q\nfrom: %q", fx.file, got, data)
			}
			again, err := fx.open(st, id(fx))
			if err != nil {
				t.Fatalf("%s: reopen: %v\nfile: %q\nfrom: %q", fx.file, err, got, data)
			}
			if again.torn || again.n != l.n+1 && l.n >= 0 {
				t.Fatalf("%s: reopen got %d records torn=%v, want %d clean", fx.file, again.n, again.torn, l.n+1)
			}
			if err := again.close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzCodecRecord feeds arbitrary bytes to the record decoders. They must
// not panic, and whatever they accept must survive a round trip: encoding
// the decoded records and decoding those bytes gives the same records, and
// the encoding is a fixed point.
func FuzzCodecRecord(f *testing.F) {
	f.Add([]byte(hdrA + "\n" + expLine(0, "Masked") + "\n" + expLine(1, "SDC") + "\n"))
	f.Add([]byte(hdrA + "\n" + `{"type":"quarantine","id":2,"effect":"Timeout","reason":"deadline"}` + "\n"))
	f.Add([]byte(`{"kind":"grant","shard":"a:1:0","lease":"l","epoch":3,"worker":"w1"}`))
	encode := func(t *testing.T, res []*core.CampaignResult) []byte {
		var buf bytes.Buffer
		lw := NewLogWriter(&buf)
		for _, r := range res {
			if err := lw.Result(r); err != nil {
				t.Fatalf("accepted records do not encode: %v", err)
			}
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lenient, torn, lerr := ParseLogLenient(bytes.NewReader(data))
		res, err := ParseLog(bytes.NewReader(data))
		if err == nil && (lerr != nil || torn || !reflect.DeepEqual(res, lenient)) {
			t.Fatalf("strict parse accepted what the lenient one did not: torn=%v %v", torn, lerr)
		}
		if lerr == nil {
			enc := encode(t, lenient)
			back, err := ParseLog(bytes.NewReader(enc))
			if err != nil || !reflect.DeepEqual(back, lenient) {
				t.Fatalf("round trip changed the records (%v):\n from: %q\n  enc: %q", err, data, enc)
			}
			if again := encode(t, back); !bytes.Equal(again, enc) {
				t.Fatalf("encoding is not a fixed point:\n first: %q\nsecond: %q", enc, again)
			}
		}

		var rec ControlRecord
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted control record does not encode: %v", err)
		}
		var back ControlRecord
		if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("control record round trip (%v): %+v != %+v", err, back, rec)
		}
	})
}

// TestSpanLogSharesJournalClock is the one-clock rule at every crash
// point: journal and span appends interleave (spans outnumber experiments,
// and big ones spill the write buffer early), and after every append the
// process "dies" — both handles dropped with nothing flushed. What the
// next lifetime finds: no torn span line before the last one, every span
// appended before the journal's last completed sync, and exactly one span
// fsync per journal sync — the span log has no count of its own. A clean
// shutdown adds the span log's own Close.
func TestSpanLogSharesJournalClock(t *testing.T) {
	const steps = 60
	span := func(i int) obs.SpanRecord {
		rec := obs.SpanRecord{Trace: "t", Span: fmt.Sprintf("%016x", i), Name: "engine.execute", StartUS: int64(i)}
		if i%7 == 0 {
			rec.Attrs = map[string]string{"pad": strings.Repeat("x", 3000)}
		}
		return rec
	}
	for crashAt := 0; crashAt <= steps; crashAt++ {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.BatchSize = 4
		journalSyncs, spanSyncs := fsyncHist.Count(), spanFsyncHist.Count()
		spans, err := st.SpanWriter("c")
		if err != nil {
			t.Fatal(err)
		}
		c, err := st.Create("c", vaSpec(steps, 3))
		if err != nil {
			t.Fatal(err)
		}
		appended, durable := 0, 0 // spans appended; spans appended before the journal's last sync
		for i := 0; i < crashAt; i++ {
			if i%4 == 3 {
				before := fsyncHist.Count()
				if err := c.Append(core.Experiment{ID: i, Outcome: avf.Masked, Effect: "Masked"}); err != nil {
					t.Fatal(err)
				}
				if fsyncHist.Count() != before {
					durable = appended
				}
				continue
			}
			if err := spans.Append(span(i)); err != nil {
				t.Fatal(err)
			}
			appended++
		}
		if crashAt == steps {
			// The clean arm: the journal closes first, as under Store.Run and
			// the coordinator, then the service closes the span log.
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := spans.Close(); err != nil {
				t.Fatal(err)
			}
			durable = appended
			spanSyncs++
		}
		if j, s := fsyncHist.Count()-journalSyncs, spanFsyncHist.Count()-spanSyncs; s != j {
			t.Fatalf("crash after %d appends: %d span-log fsyncs beside %d journal syncs", crashAt, s, j)
		}

		raw, err := os.ReadFile(filepath.Join(st.Dir(), "c", spansFile))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		intact := 0
		for k, line := range lines {
			var rec obs.SpanRecord
			if len(line) == 0 {
				continue
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				if k != len(lines)-1 {
					t.Fatalf("crash after %d appends: torn span line %d of %d: %v", crashAt, k+1, len(lines), err)
				}
				continue
			}
			intact++
		}
		if intact < durable {
			t.Fatalf("crash after %d appends: %d spans on disk, %d were appended before the journal's last sync",
				crashAt, intact, durable)
		}
		// The next lifetime cuts the torn tail and carries on.
		if again, err := st.SpanWriter("c"); err != nil {
			t.Fatalf("crash after %d appends: reopen: %v", crashAt, err)
		} else if err := again.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
