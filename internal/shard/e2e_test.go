package shard_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufi/internal/bench"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// This file is the multi-node integration gate on the distributed
// sharding layer: an httptest coordinator with real shard.Worker nodes
// pulling over HTTP, checked against the invariant the whole design
// hangs on — a sharded campaign's merged journal is byte-identical (per
// record) to the same campaign run in a single local process, through
// worker death, lease re-issue, and duplicate batches.

// cluster is one coordinator node under httptest.
type cluster struct {
	st  *store.Store
	co  *shard.Coordinator
	srv *service.Server
	ts  *httptest.Server
}

func startCluster(t testing.TB, dir string, shards int, ttl time.Duration) *cluster {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: shards, LeaseTTL: ttl})
	srv := service.New(st, service.Options{Workers: 2, Coordinator: co})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &cluster{st: st, co: co, srv: srv, ts: ts}
}

// startWorker launches a shard worker against the cluster and returns a
// channel closed when its Run loop exits.
func startWorker(ctx context.Context, c *cluster, name string, batch int, hook func(string, int)) chan struct{} {
	w := &shard.Worker{
		Base: c.ts.URL, Name: name, BatchSize: batch,
		Poll: 5 * time.Millisecond, AfterBatch: hook,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	return done
}

// submit POSTs a campaign spec and fails the test on a non-202 answer.
func submit(t testing.TB, base string, body map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, buf.String())
	}
}

// waitDone polls a campaign's /v1 status until it reaches a terminal
// state, failing the test if that state is not "done".
func waitDone(t testing.TB, base, id string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		resp, err := http.Get(base + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("campaign %s ended %s: %s", id, st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish within %v", id, within)
}

// journalRecords reads a campaign's journal and keys every record line by
// "type:id" ("campaign" for the header). It also reports how many exp
// records appeared more than once — the idempotence gate: a journal
// merged from duplicate batches must contain each experiment exactly once.
func journalRecords(t *testing.T, st *store.Store, id string) (map[string][]byte, int) {
	t.Helper()
	f, err := st.OpenLog(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := make(map[string][]byte)
	dups := 0
	sc := bufio.NewScanner(f)
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

// traceRecords keys a campaign's trace lines by experiment id.
func traceRecords(t *testing.T, st *store.Store, id string) map[int][]byte {
	t.Helper()
	f, err := st.OpenTraces(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[int][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		out[probe.ID] = line
	}
	return out
}

// diffJournals compares two record maps byte by byte.
func diffJournals(t *testing.T, label string, sharded, local map[string][]byte) {
	t.Helper()
	if len(sharded) != len(local) {
		t.Errorf("%s: %d sharded journal records vs %d local", label, len(sharded), len(local))
	}
	for key, lb := range local {
		sb, ok := sharded[key]
		if !ok {
			t.Errorf("%s: record %s missing from sharded journal", label, key)
			continue
		}
		if !bytes.Equal(sb, lb) {
			t.Errorf("%s: record %s diverged:\n  sharded: %s\n  local:   %s", label, key, sb, lb)
		}
	}
}

// TestShardedDifferentialSuite is the distributed differential gate: the
// full benchmark suite on both GPU presets (trimmed under -short), each
// campaign run once locally and once sharded across a coordinator and two
// HTTP workers, with the merged journal compared record-for-record.
func TestShardedDifferentialSuite(t *testing.T) {
	presets := []string{"RTX2060", "GTXTitan"}
	apps := bench.All()
	if testing.Short() {
		apps = apps[:3]
		presets = presets[:1]
	}

	c := startCluster(t, t.TempDir(), 3, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(ctx, c, "w1", 5, nil)
	startWorker(ctx, c, "w2", 5, nil)

	localDir := t.TempDir()
	stLocal, err := store.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}

	structures := []string{"regfile", "l2"}
	for _, preset := range presets {
		for i, app := range apps {
			structure := structures[i%len(structures)]
			id := strings.ToLower(fmt.Sprintf("diff-%s-%s-%s", preset, app.Name, structure))
			spec := store.Spec{
				App: app.Name, GPU: preset, Kernel: app.Kernels[0], Structure: structure,
				Runs: 12, Seed: 23, Workers: 2,
			}
			label := preset + "/" + app.Name + "/" + structure

			submit(t, c.ts.URL, map[string]any{
				"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
				"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
				"workers": spec.Workers,
			})
			if _, err := stLocal.Run(context.Background(), id, spec, nil, nil); err != nil {
				t.Fatalf("local %s: %v", label, err)
			}
			waitDone(t, c.ts.URL, id, 2*time.Minute)

			sharded, dups := journalRecords(t, c.st, id)
			local, _ := journalRecords(t, stLocal, id)
			if dups != 0 {
				t.Errorf("%s: %d duplicate exp records in merged journal", label, dups)
			}
			diffJournals(t, label, sharded, local)
		}
	}
}

// TestShardedKillAndRejoin kills a worker mid-shard and lets a second
// worker take over after the lease expires: the merged journal must be
// byte-identical to a local run, with every experiment exactly once.
func TestShardedKillAndRejoin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool
	}{
		{"forked", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startCluster(t, t.TempDir(), 4, 200*time.Millisecond)
			id := "kill-rejoin-" + tc.name
			spec := store.Spec{
				App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
				Runs: 24, Seed: 7, Workers: 2, Trace: tc.trace,
			}

			// Worker 1 dies the moment its first journal batch lands.
			ctx1, kill := context.WithCancel(context.Background())
			var once sync.Once
			w1done := startWorker(ctx1, c, "doomed", 3, func(string, int) {
				once.Do(kill)
			})

			submit(t, c.ts.URL, map[string]any{
				"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
				"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
				"workers": spec.Workers, "trace": spec.Trace,
			})
			select {
			case <-w1done:
			case <-time.After(2 * time.Minute):
				t.Fatal("worker 1 was never killed — no batch landed")
			}

			// Worker 2 picks up the remains: unclaimed shards immediately,
			// the dead worker's shard once its lease expires.
			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			startWorker(ctx2, c, "heir", 3, nil)
			waitDone(t, c.ts.URL, id, 2*time.Minute)

			localSt, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := localSt.Run(context.Background(), id, spec, nil, nil); err != nil {
				t.Fatalf("local arm: %v", err)
			}

			sharded, dups := journalRecords(t, c.st, id)
			local, _ := journalRecords(t, localSt, id)
			if dups != 0 {
				t.Errorf("%d duplicate exp records survived the rejoin merge", dups)
			}
			for i := 0; i < spec.Runs; i++ {
				if _, ok := sharded[fmt.Sprintf("exp:%d", i)]; !ok {
					t.Errorf("experiment %d missing from merged journal", i)
				}
			}
			diffJournals(t, tc.name, sharded, local)
			if tc.trace {
				st := traceRecords(t, c.st, id)
				lt := traceRecords(t, localSt, id)
				if len(st) != len(lt) {
					t.Errorf("%d sharded traces vs %d local", len(st), len(lt))
				}
				for tid, lb := range lt {
					if sb, ok := st[tid]; !ok || !bytes.Equal(sb, lb) {
						t.Errorf("trace %d diverged or missing", tid)
					}
				}
			}
			if c.co.Stats().ShardsReissued == 0 {
				t.Error("expected at least one lease re-issue after the worker kill")
			}

			writeDigest(t, tc.name, sharded)
		})
	}
}

// writeDigest appends a deterministic digest of the merged journal to
// $SHARD_DIGEST_FILE (when set), for the CI artifact.
func writeDigest(t *testing.T, label string, recs map[string][]byte) {
	t.Helper()
	path := os.Getenv("SHARD_DIGEST_FILE")
	if path == "" {
		return
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write(recs[k])
		h.Write([]byte{'\n'})
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintf(f, "%s %s %d-records\n", hex.EncodeToString(h.Sum(nil)), label, len(recs))
}

// TestShardedCancelMidCampaign pins the DELETE satellite end to end over
// HTTP: cancelling a campaign with a claimed shard revokes the lease,
// answers late journal batches with a typed 409, and the next service
// lifetime's resume scan agrees the campaign is cancelled.
func TestShardedCancelMidCampaign(t *testing.T) {
	dir := t.TempDir()
	c := startCluster(t, dir, 2, time.Minute)
	id := "cancel-mid-shard"
	submit(t, c.ts.URL, map[string]any{
		"id": id, "app": "VA", "gpu": "RTX2060", "kernel": "va_add",
		"structure": "regfile", "runs": 20, "seed": 3, "workers": 2,
	})

	// Claim a shard by hand — no worker runs, so the campaign sits
	// mid-shard with an outstanding lease.
	var sh shard.Shard
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Post(c.ts.URL+"/v1/shards/claim", "application/json",
			strings.NewReader(`{"worker":"manual"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			json.NewDecoder(resp.Body).Decode(&sh)
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("claim: unexpected status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never became claimable")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// DELETE the campaign mid-shard.
	req, _ := http.NewRequest(http.MethodDelete, c.ts.URL+"/v1/campaigns/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del struct{ State string }
	json.NewDecoder(resp.Body).Decode(&del)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || del.State != "cancelled" {
		t.Fatalf("DELETE: %d %+v", resp.StatusCode, del)
	}

	// A late journal batch under the (now dead) lease is a typed 409 —
	// the campaign must not be resurrected.
	batch, _ := json.Marshal(shard.Batch{Campaign: id, Shard: sh.ID, Lease: sh.Lease})
	resp, err = http.Post(c.ts.URL+"/v1/shards/"+sh.ID+"/journal", "application/json",
		bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code      string `json:"code"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Error.Code != "campaign_closed" {
		t.Fatalf("late batch: %d code=%q (want 409 campaign_closed)", resp.StatusCode, env.Error.Code)
	}
	if env.Error.RequestID == "" {
		t.Error("error envelope missing request_id")
	}

	// Claims find nothing; heartbeats on the dead lease are refused.
	resp, err = http.Post(c.ts.URL+"/v1/shards/claim", "application/json",
		strings.NewReader(`{"worker":"manual"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim after cancel: %d (want 204)", resp.StatusCode)
	}

	// Next lifetime: the resume scan must agree the campaign is cancelled,
	// not resurrect it.
	c.ts.Close()
	c.srv.Close()
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := service.New(st2, service.Options{Workers: 1})
	resumed, err := srv2.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for _, rid := range resumed {
		if rid == id {
			t.Fatalf("resume scan resurrected cancelled campaign %s", id)
		}
	}
	info, err := st2.Inspect(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Done || !info.Cancelled {
		t.Fatalf("stored state after restart: done=%v cancelled=%v", info.Done, info.Cancelled)
	}
}
