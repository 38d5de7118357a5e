package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/shard"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// heldTransport is how the seeded-worker test drives a real Worker: it sits
// in Worker.Client, the seam of the worker's one request path, and hands
// every POST to the test's schedule in arrival order. The schedule says how
// long the POST is held and how it is answered — forwarded to the
// coordinator (a nil answer), or answered in its place — and the transport
// counts, per shard, the POSTs between their arrival and their answer.
type heldTransport struct {
	next     http.RoundTripper
	schedule schedule

	mu       sync.Mutex
	inflight map[string]int // shard -> POSTs in flight
	most     int            // the most POSTs one shard ever had in flight
	posts    []heldPost     // every POST, in arrival order, with its answer once it has one
}

// schedule decides one POST's fate: how long it is held, and its answer.
type schedule func(p heldPost) (hold time.Duration, answer func(*http.Request) (*http.Response, error))

// heldPost is one POST as the schedule sees it.
type heldPost struct {
	n        int    // arrival number, from 0
	shard    string // "" for a claim
	kind     string // the path's last segment: "journal", "claim", ...
	batch    shard.Batch
	inflight int // POSTs of its shard in flight, itself included

	err    error              // how the worker's request ended, once answered
	result *shard.BatchResult // a journal POST's 200 answer
}

func (h *heldTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(raw))
	rest := strings.TrimPrefix(req.URL.Path, "/v1/shards/")
	p := heldPost{kind: rest[strings.LastIndexByte(rest, '/')+1:]}
	if i := strings.LastIndexByte(rest, '/'); i > 0 {
		p.shard, _ = url.PathUnescape(rest[:i])
	}
	if p.kind == "journal" {
		if p.batch, err = shard.DecodeBatch(raw); err != nil {
			return nil, err
		}
	}

	h.mu.Lock()
	h.inflight[p.shard]++
	p.n, p.inflight = len(h.posts), h.inflight[p.shard]
	if p.shard != "" {
		h.most = max(h.most, p.inflight)
	}
	h.posts = append(h.posts, p)
	hold, answer := h.schedule(p)
	h.mu.Unlock()

	if answer == nil {
		answer = h.next.RoundTrip
	}
	var resp *http.Response
	select {
	case <-time.After(hold):
		resp, err = answer(req)
	case <-req.Context().Done():
		err = req.Context().Err()
	}
	var res *shard.BatchResult
	if err == nil && p.kind == "journal" && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		res = &shard.BatchResult{}
		if err := json.Unmarshal(body, res); err != nil {
			return nil, err
		}
	}

	h.mu.Lock()
	h.inflight[p.shard]--
	h.posts[p.n].err, h.posts[p.n].result = err, res
	h.mu.Unlock()
	return resp, err
}

// journal returns the journal POSTs, in arrival order.
func (h *heldTransport) journal() []heldPost {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []heldPost
	for _, p := range h.posts {
		if p.kind == "journal" {
			out = append(out, p)
		}
	}
	return out
}

// answerWith answers a held POST in the coordinator's place.
func answerWith(status int, body string) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: status, Status: http.StatusText(status), Request: req,
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
		}, nil
	}
}

// refuse answers a held POST with the error envelope of a typed protocol
// error, in the coordinator's place.
func refuse(code string) func(*http.Request) (*http.Response, error) {
	return answerWith(http.StatusConflict, fmt.Sprintf(`{"error":{"code":%q,"message":"answered by the test"}}`, code))
}

// heldWorker returns a worker on cluster c whose every POST goes through a
// heldTransport driven by sched.
func heldWorker(t *testing.T, c *cluster, name string, batch int, sched schedule) (*shard.Worker, *heldTransport) {
	t.Helper()
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	h := &heldTransport{next: tr, schedule: sched, inflight: map[string]int{}}
	return &shard.Worker{Base: c.ts.URL, Name: name, BatchSize: batch, Client: &http.Client{Transport: h}}, h
}

// forwardAll is the schedule that holds nothing and answers nothing itself.
func forwardAll(heldPost) (time.Duration, func(*http.Request) (*http.Response, error)) { return 0, nil }

// TestWorkerSeededPosts puts the real Worker under schedules of its POSTs:
// a schedule holds each one, then forwards it or answers it in the
// coordinator's place, deciding from the POST's place in the worker's
// stream and a seeded generator, not from how the wall clock falls. Its
// rows hold the worker to what three races between a shard's actors once
// broke:
//   - one_post_in_flight: a shard never has two POSTs in flight, even when
//     a batch is held for longer than the idle interval (a third of the
//     lease), and the campaign still merges to the library's journal;
//   - sender_closes_campaign: a sender batch answered campaign_done, here
//     by a real coordinator whose lease expired on a worker that had
//     merged all of the shard but its first experiment, is followed by no
//     POST, and the shard ends cleanly;
//   - cluster_span_ahead: the last engine.cluster span goes out ahead of
//     the shard's last experiment, so whichever batch carries that record,
//     and closes the campaign, carries the span, and spans.jsonl holds it
//     and the worker.shard span;
//   - verdict_in_flight: the answer to the POST in flight decides how the
//     shard ends, whatever else reaches the coordinator meanwhile — a
//     verdict ends it with that verdict, and a final batch held past the
//     idle interval is answered, not lost.
func TestWorkerSeededPosts(t *testing.T) {
	const ttl = 150 * time.Millisecond
	idle := ttl / 3
	va := func(runs int, seed int64) store.Spec {
		return store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
			Runs: runs, Seed: seed, Workers: 1}
	}
	ctx := context.Background()

	t.Run("one_post_in_flight", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			c := startCluster(t, t.TempDir(), 1, ttl)
			rng := rand.New(rand.NewSource(seed))
			id, spec := fmt.Sprint("one-in-flight-", seed), va(40, seed)
			w, h := heldWorker(t, c, "held", 4, func(p heldPost) (time.Duration, func(*http.Request) (*http.Response, error)) {
				// The first batch, and then every other one as the seed
				// falls, is held past the idle interval.
				hold := time.Duration(0)
				if p.kind == "journal" && (p.n == 0 || rng.Intn(2) == 0) {
					hold = idle + time.Duration(rng.Int63n(int64(idle)))
				}
				return hold, nil
			})
			submitSpec(t, c.ts.URL, id, spec)
			if err := w.RunShard(ctx, claimShard(t, c.ts.URL, "held", time.Minute)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if h.most != 1 {
				t.Errorf("seed %d: a shard had %d POSTs in flight at once", seed, h.most)
			}
			waitDone(t, c.ts.URL, id, time.Minute)
			sharded, dups := journalRecords(t, c.st, id)
			local, _, _ := library(t, spec)
			if dups != 0 {
				t.Errorf("seed %d: %d duplicate exp records", seed, dups)
			}
			diffJournals(t, id, sharded, local)
		}
	})

	t.Run("sender_closes_campaign", func(t *testing.T) {
		c := startCluster(t, t.TempDir(), 1, ttl)
		id, spec := "sender-closes", va(24, 7)
		submitSpec(t, c.ts.URL, id, spec)
		// Each holder's engine is paced by its POSTs, not by how the
		// scheduler falls: await holds it in the experiment hook until ready
		// (for at most a minute; the checks below then say what went wrong).
		await := func(ready func() bool) {
			for deadline := time.Now().Add(time.Minute); !ready() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		// The first holder's first experiment is acknowledged in the
		// coordinator's place and never reaches it. Its engine starts no
		// second experiment before that batch is out, so the batch holds the
		// one experiment; the rest of the shard merges, and the final batch
		// finds the shard incomplete.
		var lost atomic.Int64
		lost.Store(-1)
		first, _ := heldWorker(t, c, "first", 1, func(p heldPost) (time.Duration, func(*http.Request) (*http.Response, error)) {
			for _, r := range p.batch.Records {
				if r.Exp != nil && lost.CompareAndSwap(-1, int64(r.Exp.ID)) {
					return 0, answerWith(http.StatusOK, `{"accepted":1,"duplicates":0,"shard_done":false,"campaign_done":false}`)
				}
			}
			return 0, nil
		})
		var started atomic.Int64
		prev := core.SetExperimentHook(func(int, *sim.FaultSpec) {
			if started.Add(1) > 1 {
				await(func() bool { return lost.Load() >= 0 })
			}
		})
		defer core.SetExperimentHook(prev)
		sh := claimShard(t, c.ts.URL, "first", time.Minute)
		if err := first.RunShard(ctx, sh); err == nil || !strings.Contains(err.Error(), "incomplete") {
			t.Fatalf("the first holder's shard ended with %v, want it incomplete", err)
		}
		// One of its heir's sender batches carries the one experiment
		// missing: its engine starts nothing after that experiment until a
		// batch was answered campaign_done, so the engine cannot finish, and
		// leave the record to the final batch, first.
		heir, h := heldWorker(t, c, "heir", 1, forwardAll)
		var lostRan atomic.Bool
		core.SetExperimentHook(func(id int, _ *sim.FaultSpec) {
			if int64(id) == lost.Load() {
				lostRan.Store(true)
			} else if lostRan.Load() {
				await(func() bool {
					for _, p := range h.journal() {
						if p.result != nil && p.result.CampaignDone {
							return true
						}
					}
					return false
				})
			}
		})
		re := claimShard(t, c.ts.URL, "heir", time.Minute)
		if re.ID != sh.ID || re.Epoch != sh.Epoch+1 {
			t.Fatalf("the heir claimed %s at epoch %d, want %s re-issued", re.ID, re.Epoch, sh.ID)
		}
		if err := heir.RunShard(ctx, re); err != nil {
			t.Fatalf("the heir's shard closed its campaign, and ended with %v", err)
		}
		core.SetExperimentHook(prev)
		posts := h.journal()
		closer := len(posts)
		for i, p := range posts {
			if p.result != nil && p.result.CampaignDone {
				closer = min(closer, i)
			}
		}
		if closer == len(posts) || posts[closer].batch.Final {
			t.Fatalf("no sender batch of the heir's was answered campaign_done")
		}
		if closer != len(posts)-1 {
			t.Errorf("%d POSTs followed the sender batch that closed the campaign (the last final=%v)",
				len(posts)-1-closer, posts[len(posts)-1].batch.Final)
		}
		waitDone(t, c.ts.URL, id, time.Minute)
		sharded, dups := journalRecords(t, c.st, id)
		local, _, _ := library(t, spec)
		if dups != 0 {
			t.Errorf("%d duplicate exp records", dups)
		}
		diffJournals(t, id, sharded, local)
	})

	t.Run("cluster_span_ahead", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			c := startCluster(t, t.TempDir(), 1, time.Minute)
			id, spec := fmt.Sprint("span-ahead-", seed), va(24, seed)
			w, h := heldWorker(t, c, "held", 1, forwardAll)
			submitSpec(t, c.ts.URL, id, spec)
			if err := w.RunShard(ctx, claimShard(t, c.ts.URL, "held", time.Minute)); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			waitDone(t, c.ts.URL, id, time.Minute)
			lastSpan, lastExp, n := -1, -1, 0
			for _, p := range h.journal() {
				for _, r := range p.batch.Records {
					switch {
					case r.Kind == shard.KindExp:
						lastExp = n
					case r.Span.Name == "engine.cluster":
						lastSpan = n
					}
					n++
				}
			}
			if lastSpan < 0 || lastSpan > lastExp {
				t.Errorf("seed %d: the last engine.cluster span is record %d of the shard's stream, its last experiment record %d",
					seed, lastSpan, lastExp)
			}
			spans := spanLog(t, c.st, id)
			assertNoOrphans(t, spans)
			exps, shardSpans := 0, 0
			for _, r := range spans {
				switch r.Name {
				case "engine.cluster":
					n, _ := strconv.Atoi(r.Attrs["experiments"])
					exps += n
				case "worker.shard":
					shardSpans++
				}
			}
			if exps != spec.Runs || shardSpans != 1 {
				t.Errorf("seed %d: spans.jsonl holds engine.cluster spans of %d of %d experiments and %d worker.shard spans, want all and one",
					seed, exps, spec.Runs, shardSpans)
			}
		}
	})

	t.Run("verdict_in_flight", func(t *testing.T) {
		// Anything that reaches the coordinator while a POST of the shard is
		// held is answered campaign_closed: only the held POST's own answer
		// may decide.
		for _, arm := range []struct {
			name  string
			runs  int
			held  func(heldPost) bool // the POST to hold past the idle interval
			fence bool                // answer it lease_fenced; else forward it
		}{
			{name: "verdict", runs: 2000, fence: true, held: func(p heldPost) bool { return p.kind == "journal" && p.n == 0 }},
			{name: "answer", runs: 40, held: func(p heldPost) bool { return p.batch.Final }},
		} {
			t.Run(arm.name, func(t *testing.T) {
				c := startCluster(t, t.TempDir(), 2, ttl)
				w, h := heldWorker(t, c, "held", 1000, func(p heldPost) (time.Duration, func(*http.Request) (*http.Response, error)) {
					switch {
					case p.inflight > 1:
						return 0, refuse("campaign_closed")
					case arm.held(p) && arm.fence:
						return 2 * idle, refuse("lease_fenced")
					case arm.held(p):
						return 2 * idle, nil
					}
					return 0, nil
				})
				submitSpec(t, c.ts.URL, "in-flight-"+arm.name, va(arm.runs, 7))
				sh := claimShard(t, c.ts.URL, "held", time.Minute)
				if !arm.fence && len(sh.Indices) == arm.runs {
					t.Fatalf("the campaign is one shard: its final batch may close it, and there is none to hold")
				}
				err := w.RunShard(ctx, sh)
				posts := h.journal()
				if arm.fence {
					if !errors.Is(err, shard.ErrLeaseFenced) {
						t.Errorf("the held POST was answered lease_fenced, and the shard ended with %v", err)
					}
					if len(posts) != 1 {
						t.Errorf("%d journal POSTs, want the one refused", len(posts))
					}
					return
				}
				if err != nil {
					t.Fatalf("the held final batch was forwarded, and the shard ended with %v", err)
				}
				if last := posts[len(posts)-1]; !last.batch.Final || last.result == nil || !last.result.ShardDone {
					t.Errorf("the last POST (final=%v) was answered %+v, %v; want the held final batch answered shard_done",
						last.batch.Final, last.result, last.err)
				}
				for _, st := range c.co.Statuses() {
					if st.ID == sh.ID && st.Merged != st.Indices {
						t.Errorf("shard %s merged %d of %d experiments", st.ID, st.Merged, st.Indices)
					}
				}
			})
		}
	})
}
