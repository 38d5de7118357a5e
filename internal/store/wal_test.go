package store

import (
	"os"
	"path/filepath"
	"testing"
)

// walRecs is a small but representative control-plane history: a plan
// generation, its durable marker, a grant, and a merge record of the kind older
// builds wrote.
func walRecs() []ControlRecord {
	return []ControlRecord{
		{Kind: CtlPlan, Gen: 1, Shard: "walt:1:0", Indices: []int{0, 1, 2, 3}},
		{Kind: CtlPlanDone, Gen: 1, Count: 1},
		{Kind: CtlGrant, Shard: "walt:1:0", Lease: "lease-abc", Epoch: 1, Worker: "w1"},
		{Kind: "merge", Shard: "walt:1:0", Count: 4}, // written up to PR 27, still read
	}
}

// openWALCampaign creates a campaign so its directory exists, which is
// all OpenControlWAL requires.
func openWALCampaign(t testing.TB, st *Store, id string) {
	t.Helper()
	c, err := st.Create(id, vaSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestControlWALCorruption: a malformed control record that is NOT a torn
// tail is never silently dropped (the cases are in log_test.go, shared with
// the journal).
func TestControlWALCorruption(t *testing.T) { testLogCorruption(t, controlFile) }

// TestControlWALBatching pins the fsync discipline: Append buffers until
// the store's batch size, AppendSync and Close always reach the disk.
func TestControlWALBatching(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.BatchSize = 3
	openWALCampaign(t, st, "batch")
	path := filepath.Join(st.Dir(), "batch", controlFile)

	_, _, w, err := st.OpenControlWAL("batch")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(ControlRecord{Kind: CtlPlan, Gen: 1, Shard: "batch:1:0", Indices: []int{1}}); err != nil {
			t.Fatal(err)
		}
	}
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("2 of 3 batched records already on disk (%d bytes)", len(data))
	}
	if err := w.Append(ControlRecord{Kind: CtlPlan, Gen: 1, Shard: "batch:1:0", Indices: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); len(data) == 0 {
		t.Fatal("full batch not flushed")
	}
	if err := w.Append(ControlRecord{Kind: CtlPlanDone, Gen: 1, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, torn, w2, err := st.OpenControlWAL("batch")
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != 4 {
		t.Fatalf("after close: %d records torn=%v, want 4 clean", len(recs), torn)
	}
	w2.Close()

	// Appends after Close are refused, not silently dropped.
	if err := w.Append(ControlRecord{Kind: CtlPlan}); err == nil {
		t.Fatal("append to closed WAL succeeded")
	}

	// A WAL for a campaign that was never created has nowhere to live.
	if _, _, _, err := st.OpenControlWAL("never-created"); err == nil {
		t.Fatal("control WAL opened for a campaign with no directory")
	}
}
