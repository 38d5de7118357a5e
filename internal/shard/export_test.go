package shard

import (
	"context"
	"time"
)

// RunShard runs one claimed shard the way Worker.Run does, for the sender
// tests that play coordinator themselves, and ends the engine session as Run
// does when it returns.
func (w *Worker) RunShard(ctx context.Context, sh *Shard) error {
	defer w.endSession()
	return w.runShard(ctx, sh)
}

// SetBackoff gives every worker of the test binary a backoff curve from
// base doubling to max, until restore is called. Call restore only once the
// workers that wait under it have stopped.
func SetBackoff(base, max time.Duration) (restore func()) {
	old := curve
	curve = backoff{base: base, max: max}
	return func() { curve = old }
}

// Call is the worker's one request path, for the wire round-trip test.
func (w *Worker) Call(ctx context.Context, path string, body, out any) error {
	return w.call(ctx, path, body, out)
}

// Footprint is what the soak test bounds: how many campaigns the claim
// scan walks, how many the coordinator tracks at all, and how many of
// those still hold anything that grows with a campaign's size — a store
// handle, merge sets, the schedule, experiments, a result, a shard's
// indices.
func (co *Coordinator) Footprint() (scanned, tracked, live int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, run := range co.campaigns {
		heavy := run.c != nil || run.tab.journaled != nil || run.sched != nil || run.newExps != nil || run.res != nil
		for _, ss := range run.tab.shards {
			heavy = heavy || ss.indexSet != nil || ss.indices != nil || ss.leases != nil
		}
		if heavy {
			live++
		}
	}
	return len(co.order), len(co.campaigns), live
}
