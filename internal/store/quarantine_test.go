package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gpufi/internal/avf"
	"gpufi/internal/core"
	"gpufi/internal/sim"
)

// TestQuarantineRecordRoundTrip exercises the codec alone: a quarantine
// record followed by its outcome record is a no-op shadow, while one whose
// outcome never landed gets a synthesized experiment with the recorded
// classification.
func TestQuarantineRecordRoundTrip(t *testing.T) {
	shadowed := core.Experiment{ID: 0, Outcome: avf.Crash, Effect: "Crash",
		Quarantined: true, Detail: "quarantined: simulator panic: boom"}
	var buf []byte
	for _, rec := range []any{
		headerRecord(Header{App: "VA", GPU: "RTX2060", Kernel: "va_add",
			Structure: "regfile", Bits: 1, Runs: 3, Seed: 1}),
		// Exp 0: quarantined with its outcome record on disk (the normal case).
		quarantineRecord(shadowed), &shadowed,
		// Exp 1: ordinary outcome.
		&core.Experiment{ID: 1, Outcome: avf.Masked, Effect: "Masked"},
		// Exp 2: quarantine record only — the crash window.
		quarantineRecord(core.Experiment{ID: 2, Outcome: avf.Timeout, Effect: "Timeout",
			Quarantined: true, Detail: "quarantined: wall-clock deadline 1s exceeded"}),
	} {
		var err error
		if buf, err = appendRecord(buf, rec); err != nil {
			t.Fatal(err)
		}
	}

	res, err := ParseLog(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("parsed %d campaigns, want 1", len(res))
	}
	c := res[0]
	if c.Counts.Total() != 3 || c.Counts.Crash != 1 || c.Counts.Masked != 1 || c.Counts.Timeout != 1 {
		t.Fatalf("counts %+v, want 1 Crash + 1 Masked + 1 Timeout", c.Counts)
	}
	byID := map[int]core.Experiment{}
	for _, e := range c.Exps {
		if _, dup := byID[e.ID]; dup {
			t.Fatalf("experiment %d appears twice (shadow not suppressed)", e.ID)
		}
		byID[e.ID] = e
	}
	synth := byID[2]
	if synth.Outcome != avf.Timeout || !synth.Quarantined ||
		!strings.Contains(synth.Detail, "wall-clock deadline") {
		t.Errorf("synthesized experiment wrong: %+v", synth)
	}

	// A quarantine record with no preceding header is corruption.
	bad := `{"type":"quarantine","id":0,"effect":"Crash"}` + "\n"
	if _, err := ParseLog(strings.NewReader(bad)); err == nil {
		t.Error("quarantine record before campaign header accepted")
	}
	// And so is an unknown effect name.
	bad = `{"type":"campaign","app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","bits":1,"runs":1,"seed":1}` + "\n" +
		`{"type":"quarantine","id":0,"effect":"Exploded"}` + "\n"
	if _, err := ParseLog(strings.NewReader(bad)); err == nil {
		t.Error("quarantine record with invalid effect accepted")
	}
}

// TestQuarantineResumeSkipsPoison is the robustness acceptance test at the
// store layer, driven through Campaign.Record, the one writer of the order
// resume depends on. The journal a crash leaves right after a poisoned
// experiment is recorded must hold its synced quarantine record and no
// outcome record ahead of it (a Record that wrote the outcome first would
// have flushed it with the marker's sync, in front of it). The campaign then
// resumes from that image WITHOUT re-running the poison spec, and the merged
// counts match a complete run bit for bit.
func TestQuarantineResumeSkipsPoison(t *testing.T) {
	spec := vaSpec(30, 13)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(nil, cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}

	const poisonID = 17
	prev := core.SetExperimentHook(func(id int, _ *sim.FaultSpec) {
		if id == poisonID {
			panic("poison spec")
		}
	})
	defer core.SetExperimentHook(prev)

	// Reference: the poisoned campaign run to completion.
	refStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runCampaign(nil, refStore, "ref", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Counts.Total() != 30 {
		t.Fatalf("reference incomplete: %+v", ref.Counts)
	}

	// Record the reference's first 25 experiments and take the journal as it
	// is on disk right after the last one: the crash image. The fsync batch
	// (DefaultBatchSize, 32) never filled, so only the poison's quarantine
	// sync reached the disk.
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("crash", spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ref.Exps[:25] {
		if err := c.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	jp := filepath.Join(st.Dir(), "crash", journalFile)
	image, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, image, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(image), []byte("\n")) {
		var rec struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line unparseable: %v", err)
		}
		if rec.ID != poisonID {
			continue
		}
		if rec.Type != "quarantine" {
			t.Fatalf("the poison's %s record reached the disk ahead of its quarantine record:\n%s", rec.Type, image)
		}
		break
	}

	// The synthesized outcome makes the poison spec count as completed:
	// the 17 records synced ahead of it plus the synthesis.
	info, err := st.Inspect("crash")
	if err != nil {
		t.Fatal(err)
	}
	if info.Completed != poisonID+1 {
		t.Fatalf("Inspect.Completed = %d, want %d (quarantine synthesis missing?)", info.Completed, poisonID+1)
	}

	// Resume: the lost batch re-runs, the poison spec must not.
	var mu sync.Mutex
	reran := map[int]bool{}
	core.SetExperimentHook(func(id int, _ *sim.FaultSpec) {
		mu.Lock()
		reran[id] = true
		mu.Unlock()
		if id == poisonID {
			panic("poison spec")
		}
	})
	res, err := runCampaign(nil, st, "crash", spec, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reran[poisonID] {
		t.Error("resume re-ran the quarantined poison spec")
	}
	for id := poisonID + 1; id < 30; id++ {
		if !reran[id] {
			t.Errorf("resume skipped experiment %d of the lost batch", id)
		}
	}
	if res.Counts != ref.Counts {
		t.Errorf("resumed counts %+v != reference %+v", res.Counts, ref.Counts)
	}
	var poison *core.Experiment
	for i := range res.Exps {
		if res.Exps[i].ID == poisonID {
			poison = &res.Exps[i]
		}
	}
	if poison == nil || poison.Outcome != avf.Crash || !poison.Quarantined {
		t.Errorf("poison spec in merged result: %+v, want quarantined Crash", poison)
	}
}

// TestSpecExpTimeoutValidation: a negative wall-clock deadline in a Spec
// is refused by Config, so bad submissions die at validation rather than
// deep inside a worker.
func TestSpecExpTimeoutValidation(t *testing.T) {
	spec := vaSpec(5, 1)
	spec.ExpTimeoutMS = -100
	if _, err := spec.Config(); err == nil {
		t.Error("Config accepted a negative ExpTimeoutMS")
	}
	spec.ExpTimeoutMS = 5000
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ExpTimeout.Milliseconds() != 5000 {
		t.Errorf("ExpTimeout = %v, want 5s", cfg.ExpTimeout)
	}
}
