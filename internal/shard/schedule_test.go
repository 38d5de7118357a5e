package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/plan"
	"gpufi/internal/store"
)

// fakeWorker does what the schedule tells it and nothing else: it keeps the
// shard it claimed, what that shard's engine produces, and how far it got
// sending it.
type fakeWorker struct {
	name string
	sh   *Shard
	recs []core.Experiment
	sent int
}

// schedule is one randomized run of a campaign through the coordinator:
// two fake workers, a clock only the schedule moves, and a coordinator that
// is crashed and restarted over the same store directory.
type schedule struct {
	t    *testing.T
	rng  *rand.Rand
	clk  *testClock
	dir  string
	id   string
	spec store.Spec

	st      *store.Store
	co      *Coordinator
	runCh   chan error
	res     *core.CampaignResult
	done    bool
	workers []*fakeWorker
	past    []*Shard                     // grants a worker no longer acts on: tokens to try again later
	granted map[string]int64             // highest epoch any claim was answered with, per shard
	engine  map[string][]core.Experiment // a shard's records: deterministic, so run once

	crashes, fenced int
}

// boot starts a coordinator lifetime and waits until it has either
// registered the campaign's shard table or finished the campaign outright.
func (s *schedule) boot() {
	st, err := store.Open(s.dir)
	if err != nil {
		s.t.Fatal(err)
	}
	st.BatchSize = 4 // a crash loses up to three merged records
	s.st = st
	s.co = NewCoordinator(st, Options{ShardsPerCampaign: 4, LeaseTTL: time.Minute})
	s.co.now = s.clk.now
	s.runCh = make(chan error, 1)
	co := s.co
	go func() {
		res, err := co.Run(context.Background(), s.id, s.spec, nil)
		if err == nil {
			s.res = res
		}
		s.runCh <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); len(co.Statuses()) == 0; {
		select {
		case err := <-s.runCh:
			s.finished(err)
			return
		default:
		}
		if time.Now().After(deadline) {
			s.t.Fatal("the coordinator never registered the campaign")
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *schedule) finished(err error) {
	if err != nil {
		s.t.Fatalf("Run: %v", err)
	}
	s.done = true
}

// drop takes a worker off its shard; the grant stays around as a token that
// must never work again once the shard has a successor.
func (s *schedule) drop(w *fakeWorker) {
	s.past = append(s.past, w.sh)
	w.sh, w.recs, w.sent = nil, nil, 0
}

// refused sorts an error from a write under w's lease: the typed refusals
// end the worker's hold on the shard, anything else is a bug.
func (s *schedule) refused(w *fakeWorker, op string, err error) {
	switch {
	case errors.Is(err, ErrLeaseFenced):
		if s.granted[w.sh.ID] <= w.sh.Epoch {
			s.t.Fatalf("%s by %s fenced at epoch %d, and no later epoch was ever granted", op, w.name, w.sh.Epoch)
		}
		s.fenced++
	case errors.Is(err, ErrCampaignClosed), errors.Is(err, ErrCampaignSatisfied):
	default:
		s.t.Fatalf("%s by %s on %s: %v", op, w.name, w.sh.ID, err)
	}
	s.drop(w)
}

func (s *schedule) claim(w *fakeWorker) {
	sh, err := s.co.Claim(w.name)
	if errors.Is(err, ErrNoWork) {
		return
	}
	if err != nil {
		s.t.Fatalf("claim: %v", err)
	}
	if sh.Epoch <= s.granted[sh.ID] {
		s.t.Fatalf("%s granted at epoch %d after epoch %d: epochs must rise, across restarts too",
			sh.ID, sh.Epoch, s.granted[sh.ID])
	}
	s.granted[sh.ID] = sh.Epoch
	if s.engine[sh.ID] == nil {
		s.engine[sh.ID] = execShard(s.t, sh)
	}
	w.sh, w.recs, w.sent = sh, s.engine[sh.ID], 0
}

// send posts the next n records of w's shard. A worker that has sent
// everything and is told the shard is not done lost acknowledged records to
// a crash, and starts over — as the real worker's final flush does.
func (s *schedule) send(w *fakeWorker, n int) {
	n = min(n, len(w.recs)-w.sent)
	res, err := s.co.Ingest(expBatch(w.sh, w.sh.Lease, w.recs[w.sent:w.sent+n]))
	if err != nil {
		s.refused(w, "ingest", err)
		return
	}
	w.sent += n
	switch {
	case w.sent < len(w.recs):
	case res.ShardDone:
		s.drop(w)
	default:
		w.sent = 0
	}
}

// probe replays a grant somebody stopped acting on. Once the shard has been
// granted at a higher epoch — in this lifetime or an earlier one — both
// write paths must refuse it as fenced for as long as the campaign is open.
func (s *schedule) probe(old *Shard) {
	_, hbErr := s.co.Heartbeat(old.ID, old.Lease)
	_, inErr := s.co.Ingest(Batch{Campaign: s.id, Shard: old.ID, Lease: old.Lease})
	if s.granted[old.ID] <= old.Epoch {
		return // still the newest grant of its shard: it may well be live
	}
	for _, err := range []error{hbErr, inErr} {
		if !errors.Is(err, ErrLeaseFenced) && !errors.Is(err, ErrCampaignClosed) && !errors.Is(err, ErrCampaignSatisfied) {
			s.t.Fatalf("%s was granted at epoch %d; its epoch-%d lease still gets %v",
				old.ID, s.granted[old.ID], old.Epoch, err)
		}
	}
	s.fenced++
}

func (s *schedule) step() {
	w := s.workers[s.rng.Intn(len(s.workers))]
	switch op := s.rng.Intn(20); {
	case op < 9 && w.sh == nil:
		s.claim(w)
	case op < 9:
		s.send(w, 1+s.rng.Intn(5))
	case op < 11 && w.sh != nil && w.sent > 0: // a re-sent batch
		from := s.rng.Intn(w.sent)
		if _, err := s.co.Ingest(expBatch(w.sh, w.sh.Lease, w.recs[from:w.sent])); err != nil {
			s.refused(w, "re-send", err)
		}
	case op < 13 && w.sh != nil:
		if _, err := s.co.Heartbeat(w.sh.ID, w.sh.Lease); err != nil {
			s.refused(w, "heartbeat", err)
		}
	case op < 15 && len(s.past) > 0:
		s.probe(s.past[s.rng.Intn(len(s.past))])
	case op < 17: // the clock moves, sometimes past every lease
		s.clk.advance(time.Duration(s.rng.Int63n(int64(90 * time.Second))))
	case op == 17 && w.sh != nil: // the worker dies holding its shard
		s.drop(w)
	case op == 18 && s.crashes < 5:
		s.co.Crash()
		if err := <-s.runCh; err == nil {
			s.t.Fatal("Run outlived its coordinator's crash without an error")
		}
		s.crashes++
		s.boot()
	}
	s.settle()
}

// settle collects Run's result once the campaign's table has closed — under
// a batch, or inside a restart that found nothing left to do.
func (s *schedule) settle() {
	if s.done {
		return
	}
	s.co.mu.Lock()
	closed := s.co.campaigns[s.id].tab.closed
	s.co.mu.Unlock()
	if closed {
		s.finished(<-s.runCh)
	}
}

// journalByKey keys a campaign's journal lines by record type and
// experiment id, and counts experiment records written twice.
func journalByKey(t *testing.T, st *store.Store, id string) (map[string]string, int) {
	t.Helper()
	f, err := st.OpenLog(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, dups := map[string]string{}, 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Bytes(), err)
		}
		key := fmt.Sprint(probe.Type, ":", probe.ID)
		if _, seen := recs[key]; seen && probe.Type == "exp" {
			dups++
		}
		recs[key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs, dups
}

// TestCoordinatorRandomSchedules is the chaos gate as a generator: random
// interleavings of two workers claiming, sending, re-sending, heartbeating
// and dying, leases expiring by the injected clock, old grants coming back,
// and the coordinator crashing (buffered journal tail lost) and restarting
// — after which the merged journal must equal an uninterrupted local run
// byte for byte (the adaptive arm, whose stop point moves with the
// schedule: wherever both have a record), and the control.jsonl the run
// left behind must replay from every one of its record boundaries.
func TestCoordinatorRandomSchedules(t *testing.T) {
	adaptive := &plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40}
	for _, arm := range []struct {
		seed int64
		runs int
		plan *plan.Rule
	}{{1, 40, nil}, {2, 40, nil}, {3, 40, nil}, {4, 200, adaptive}} {
		t.Run(fmt.Sprint("seed=", arm.seed), func(t *testing.T) {
			s := &schedule{t: t, rng: rand.New(rand.NewSource(arm.seed)), clk: &testClock{base: time.Now()},
				dir: t.TempDir(), id: "sched", spec: vaSpec(arm.runs),
				workers: []*fakeWorker{{name: "fw1"}, {name: "fw2"}},
				granted: map[string]int64{}, engine: map[string][]core.Experiment{}}
			s.spec.Plan = arm.plan
			s.boot()
			for i := 0; i < 400 && !s.done; i++ {
				s.step()
			}
			for w, n := s.workers[0], 0; !s.done; n++ { // out of steps: one worker finishes the job
				if n > 20*arm.runs {
					t.Fatalf("the campaign does not finish: %+v", s.co.Statuses())
				}
				if w.sh == nil {
					s.clk.advance(2 * time.Minute)
					s.claim(w)
				} else {
					s.send(w, len(w.recs))
				}
				s.settle()
			}
			t.Logf("seed %d: %d crashes, %d fenced writes, %d grants let go of", arm.seed, s.crashes, s.fenced, len(s.past))
			if arm.plan == nil && (s.crashes == 0 || s.fenced == 0) {
				t.Errorf("the schedule reached %d crashes and %d fenced writes: it no longer tests what it says", s.crashes, s.fenced)
			}

			localSt, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := localSt.Run(context.Background(), s.id, s.spec, nil, nil); err != nil {
				t.Fatal(err)
			}
			sharded, dups := journalByKey(t, s.st, s.id)
			local, _ := journalByKey(t, localSt, s.id)
			if dups != 0 {
				t.Errorf("%d experiment records were journaled twice", dups)
			}
			if arm.plan == nil && len(sharded) != len(local) {
				t.Errorf("%d journal records, the local run has %d", len(sharded), len(local))
			}
			for key, line := range sharded {
				if l, ok := local[key]; ok && l != line {
					t.Errorf("record %s diverged:\n  sharded: %s\n  local:   %s", key, line, l)
				} else if !ok && arm.plan == nil {
					t.Errorf("record %s is in no local run", key)
				}
			}
			if arm.plan != nil {
				if p := s.res.Plan; p == nil || !p.Satisfied || p.Observed != p.Simulated+p.Analytic ||
					p.Observed != arm.runs-p.Skipped {
					t.Errorf("adaptive arm's plan report does not add up: %+v", p)
				}
			}

			// The WAL this run wrote, cut at every record boundary. What the
			// plan never covered was in the journal before it was made.
			ctl, _, wal, err := s.st.OpenControlWAL(s.id)
			if err != nil {
				t.Fatal(err)
			}
			wal.Close()
			planned := map[int]bool{}
			for _, r := range ctl {
				for _, i := range r.Indices {
					planned[i] = true
				}
			}
			var prior []int
			for i := 0; i < arm.runs; i++ {
				if !planned[i] {
					prior = append(prior, i)
				}
			}
			sweepControl(t, ctl, arm.runs, prior)
		})
	}
}
