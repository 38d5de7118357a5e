package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"testing"

	"gpufi/internal/core"
)

// TestTracePersistence checks the store leg of the tracing pipeline: a
// campaign run with Spec.Trace lands one JSONL trace per experiment in
// traces.jsonl, readable back through OpenTraces, with ids covering the
// run and effects agreeing with the journaled outcomes. A campaign run
// without tracing has no trace file, which reads as ErrNotFound.
func TestTracePersistence(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := vaSpec(20, 3)
	spec.Trace = true
	res, err := runCampaign(nil, st, "traced", spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Total() != 20 {
		t.Fatalf("campaign incomplete: %+v", res.Counts)
	}

	rc, err := st.OpenTraces("traced")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	effects := map[int]string{}
	for i := range res.Exps {
		effects[res.Exps[i].ID] = res.Exps[i].Effect
	}
	seen := map[int]bool{}
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var tr core.ExperimentTrace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("trace line: %v", err)
		}
		if seen[tr.ID] {
			t.Errorf("duplicate trace for experiment %d", tr.ID)
		}
		seen[tr.ID] = true
		if want := effects[tr.ID]; tr.Effect != want {
			t.Errorf("experiment %d: trace effect %s, journal %s", tr.ID, tr.Effect, want)
		}
		if len(tr.Events) == 0 || tr.Events[len(tr.Events)-1].Ev != "classify" {
			t.Errorf("experiment %d: trace does not end in a classify event", tr.ID)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Errorf("%d traces on disk, want 20", len(seen))
	}

	// Journaled experiments of a traced campaign carry Why; the journal
	// itself stays parseable (Why rides in the experiment record).
	for i := range res.Exps {
		if res.Exps[i].Why == "" {
			t.Errorf("experiment %d journaled without Why", res.Exps[i].ID)
		}
	}

	// Untraced campaigns have no trace file.
	if _, err := runCampaign(nil, st, "plain", vaSpec(5, 3), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenTraces("plain"); !errors.Is(err, ErrNotFound) {
		t.Errorf("OpenTraces on untraced campaign: %v, want ErrNotFound", err)
	}
}
