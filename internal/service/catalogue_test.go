package service

import (
	"bufio"
	"context"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpufi/internal/cli/clitest"
	"gpufi/internal/core"
	"gpufi/internal/obs"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// This file checks the metric catalogue: every family either registry
// serves is named, described and documented, the documentation names
// nothing that is not served, and the JSON view still carries every key
// clients read before the registries became its only source.

// catalogueServer runs a tiny traced campaign through a coordinator with
// one in-process worker, so every family — the per-worker vectors filled
// on the first claim included — is registered and has been fed. The worker
// has stopped by the time it returns: nothing moves the counters after.
func catalogueServer(t *testing.T) (*Server, string, *shard.Coordinator) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := shard.NewCoordinator(st, shard.Options{ShardsPerCampaign: 2})
	srv := New(st, Options{Workers: 1, Coordinator: co})
	if _, err := srv.Start(nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	w := &shard.Worker{Base: ts.URL, Name: "cat", BatchSize: 4, Poll: 5 * time.Millisecond}
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	sub := postCampaign(t, ts.URL, `{"id":"catalogue","app":"VA","gpu":"RTX2060","kernel":"va_add",`+
		`"structure":"regfile","runs":8,"seed":3,"trace":true}`)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		var st status
		getJSON(t, ts.URL+"/v1/campaigns/"+sub.ID, &st)
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("campaign ended %q", st.State)
		}
	}
	cancel()
	<-stopped
	return srv, ts.URL, co
}

// designMetrics returns the metric names in the first column of DESIGN.md
// §9's metrics table ("### Metrics registry").
func designMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Metrics registry")
	if start < 0 {
		t.Fatal("DESIGN.md has no ### Metrics registry section")
	}
	section := doc[start+1:]
	section = section[:strings.Index(section, "\n#")]
	names := map[string]bool{}
	name := regexp.MustCompile("`(gpufi_[a-z0-9_]+)")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	return names
}

// TestMetricCatalogue walks both registries after a campaign that fed every
// family and fails on a family without help text or with a name outside
// gpufi_[a-z0-9_], one DESIGN.md §9's table does not name, a name in that
// table nobody registers, and two families the JSON key rule maps to one
// key; on a gpufi_ name the documents (clitest.Docs) mention that is not a
// served family or its _bucket, _sum or _count (a * in it stands for any
// run of characters); and on an engine phase not observed exactly once per
// experiment.
func TestMetricCatalogue(t *testing.T) {
	// One observation per experiment and phase: the catalogue campaign
	// simulates its 8 experiments on the worker, in this process.
	phases := map[string]int64{}
	for _, name := range []string{"gpufi_engine_fork_seconds", "gpufi_engine_execute_seconds",
		"gpufi_engine_classify_seconds", "gpufi_experiment_seconds"} {
		phases[name] = obs.Default().Histogram(name, "", nil).Count()
	}
	srv, _, _ := catalogueServer(t)
	for name, before := range phases {
		if n := obs.Default().Histogram(name, "", nil).Count() - before; n != 8 {
			t.Errorf("%s observed %d times for 8 experiments", name, n)
		}
	}
	var prom strings.Builder
	for _, r := range srv.metrics.registries() {
		r.WriteProm(&prom)
	}
	help := map[string]string{}
	var served []string
	sc := bufio.NewScanner(strings.NewReader(prom.String()))
	for sc.Scan() {
		f := strings.SplitN(sc.Text(), " ", 4)
		switch {
		case len(f) == 4 && f[1] == "HELP":
			help[f[2]] = f[3]
		case len(f) == 4 && f[1] == "TYPE":
			served = append(served, f[2])
		}
	}

	documented := designMetrics(t)
	valid := regexp.MustCompile(`^gpufi_[a-z][a-z0-9_]*$`)
	byKey := map[string]string{}
	for _, name := range served {
		if !valid.MatchString(name) {
			t.Errorf("%s: not a gpufi_[a-z0-9_] name", name)
		}
		if strings.TrimSpace(help[name]) == "" {
			t.Errorf("%s: no help text", name)
		}
		if !documented[name] {
			t.Errorf("%s: not named in DESIGN.md §9's metrics table", name)
		}
		if prev, ok := byKey[jsonKey(name)]; ok {
			t.Errorf("%s and %s share the JSON key %q", prev, name, jsonKey(name))
		}
		byKey[jsonKey(name)] = name
	}
	for name := range documented {
		if byKey[jsonKey(name)] != name {
			t.Errorf("%s: in DESIGN.md §9's metrics table but not registered", name)
		}
	}
	refs, err := clitest.DocRefs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs.Metrics {
		re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(r.Text), `\*`, ".*") + "$")
		found := false
		for _, name := range served {
			for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
				found = found || re.MatchString(name+suffix)
			}
		}
		if !found {
			t.Errorf("%v: names no served family", r)
		}
	}
	t.Logf("%d families served, %d documented", len(served), len(documented))
}

// renamedKeys are the parent's JSON keys served under another name, each
// listed in CHANGES.md.
var renamedKeys = map[string]string{
	"experiments_total": "experiments", // gpufi_experiments_total: the rule drops _total
	// The coordinator's count of experiments an early stop saved is the
	// service's, which counts them in both modes.
	"shard_experiments_saved": "plan_experiments_saved",
}

// removedKeys are the parent's JSON keys no longer served, with the reason,
// each listed in CHANGES.md.
var removedKeys = map[string]string{
	"shards_retired":  "a campaign stops between rounds, when every shard has merged: no shard is ever withdrawn",
	"job_retries":     "a panicking job fails; nothing re-queues it",
	"worker_restarts": "a campaign runner has no supervisor to restart it",
}

// TestMetricsJSONKeepsParentKeys holds the JSON /metrics view to the 46
// keys it served when it was a hand-kept list (testdata, recorded at PR 28
// and never refreshed): every one is still a number, under its own name or
// the one renamedKeys gives it, unless removedKeys says why it went, and
// every key whose source moved reads what the Go API it used to be copied
// from reads now.
func TestMetricsJSONKeepsParentKeys(t *testing.T) {
	_, url, co := catalogueServer(t)
	var got map[string]any
	if code := getJSON(t, url+"/metrics", &got); code != 200 {
		t.Fatalf("metrics code %d", code)
	}
	es := core.EngineStats()
	panics, deadlines, discarded := core.SandboxStats()
	cs := co.Stats()
	reuse := 0.0
	if es.ForksCreated+es.ForksReused > 0 {
		reuse = float64(es.ForksReused) / float64(es.ForksCreated+es.ForksReused)
	}
	same := map[string]float64{
		"shards_planned": float64(cs.ShardsPlanned), "shards_completed": float64(cs.ShardsCompleted),
		"shards_reissued": float64(cs.ShardsReissued), "shard_batches": float64(cs.Batches),
		"shard_records_merged": float64(cs.RecordsMerged), "shard_records_duplicate": float64(cs.RecordsDuped),
		"shard_lease_expiries": float64(cs.LeaseExpiries), "shard_experiments_saved": 0,
		"shard_wal_rebuilds":  float64(cs.WALRebuilds),
		"shard_leases_fenced": float64(cs.LeasesFenced), "shard_workers": float64(len(co.WorkerStats())),
		"exp_panics": float64(panics), "exp_deadlines": float64(deadlines), "vessels_discarded": float64(discarded),
		"forks_created": float64(es.ForksCreated), "forks_reused": float64(es.ForksReused), "fork_reuse_ratio": reuse,
		"early_stops_inert": float64(es.EarlyStopsInert), "early_stops_overwritten": float64(es.EarlyStopsOverwritten),
		"early_stops_retired": float64(es.EarlyStopsRetired), "early_stops_dead": float64(es.EarlyStopsDead),
		"restores_chained": float64(es.RestoresChained), "suffix_cycles_skipped": float64(es.SuffixCyclesSkipped),
		"devices_built": float64(es.DevicesBuilt), "devices_parked": float64(es.DevicesParked),
		"cow_bytes_copied": float64(es.COWBytesCopied), "cow_bytes_avoided": float64(es.COWBytesAvoided),
		"cow_dirty_ratio": es.COWDirtyRatio, "cow_full_restores": float64(es.COWFullRestores),
		"warps_materialized": float64(es.WarpsMaterialized),
		"experiments_total":  8, "jobs_done": 1,
	}

	raw, err := os.ReadFile("testdata/metrics_keys_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, key := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(key, "#") || key == "" {
			continue
		}
		n++
		if _, gone := removedKeys[key]; gone {
			if v, ok := got[key]; ok {
				t.Errorf("%s: removed, yet served as %v", key, v)
			}
			continue
		}
		served := key
		if to, ok := renamedKeys[key]; ok {
			served = to
		}
		v, ok := got[served].(float64)
		switch want, pinned := same[key]; {
		case !ok:
			t.Errorf("%s: served as %v under %q, want a number", key, got[served], served)
		case pinned && v != want:
			t.Errorf("%s: %v, want %v", key, v, want)
		}
	}
	if n != 46 {
		t.Fatalf("%d parent keys read, want 46", n)
	}
}
