package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/store"
)

// The differential helpers of this package's tests, in both test packages:
// a sharded campaign's journal, keyed by record, is held to the same keys
// for a library run (core.RunCampaign) of its spec.

// JournalRecords reads a campaign's journal and keys every record line by
// "type:id" ("campaign" for the header). It also reports how many exp
// records appeared more than once — the idempotence gate: a journal
// merged from duplicate batches must contain each experiment exactly once.
func JournalRecords(t *testing.T, st *store.Store, id string) (map[string][]byte, int) {
	t.Helper()
	f, err := st.OpenLog(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return keyRecords(t, f)
}

// keyRecords keys every record line of a journal stream as JournalRecords
// does, and counts the repeated exp records.
func keyRecords(t *testing.T, r io.Reader) (map[string][]byte, int) {
	t.Helper()
	recs := make(map[string][]byte)
	dups := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		key := probe.Type
		if probe.Type != "campaign" {
			key = fmt.Sprintf("%s:%d", probe.Type, probe.ID)
		}
		if _, seen := recs[key]; seen && probe.Type == "exp" {
			dups++
		}
		recs[key] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, dups
}

// Library runs spec on the library engine, core.RunCampaign, and returns
// what a store holding the campaign holds, keyed as JournalRecords and
// the trace tests key it: the header and experiment records as store.WriteLog
// writes them, a quarantine record for each quarantined experiment, and the
// propagation traces. It also returns the result, whose Plan is the report
// a finished adaptive campaign's done record carries.
func Library(t *testing.T, spec store.Spec) (map[string][]byte, map[int][]byte, *core.CampaignResult) {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	traces := make(map[int][]byte)
	cfg.Sink = func(e core.Experiment) error {
		if e.Trace != nil {
			line, err := json.Marshal(e.Trace)
			traces[e.ID] = line
			return err
		}
		return nil
	}
	prof, err := core.ProfileApp(context.Background(), cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCampaign(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteLog(&buf, res); err != nil {
		t.Fatal(err)
	}
	recs, _ := keyRecords(t, &buf)
	for _, e := range res.Exps {
		if !e.Quarantined {
			continue
		}
		line, err := json.Marshal(struct {
			Type   string `json:"type"`
			ID     int    `json:"id"`
			Effect string `json:"effect"`
			Reason string `json:"reason,omitempty"`
		}{"quarantine", e.ID, e.Outcome.String(), e.Detail})
		if err != nil {
			t.Fatal(err)
		}
		recs[fmt.Sprintf("quarantine:%d", e.ID)] = line
	}
	return recs, traces, res
}
