package shard

import "context"

// RunShard runs one claimed shard the way Worker.Run does, for the sender
// tests that play coordinator themselves.
func (w *Worker) RunShard(ctx context.Context, sh *Shard) error { return w.runShard(ctx, sh) }

// Footprint is what the soak test bounds: how many campaigns the claim
// scan walks, how many the coordinator tracks at all, and how many of
// those still hold anything that grows with a campaign's size — a store
// handle, merge sets, experiments, a result, a shard's indices.
func (co *Coordinator) Footprint() (scanned, tracked, live int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, run := range co.campaigns {
		heavy := run.c != nil || run.tab.journaled != nil || run.mergedTraces != nil ||
			run.mergedSpans != nil || run.newExps != nil || run.res != nil
		for _, ss := range run.tab.shards {
			heavy = heavy || ss.indexSet != nil || ss.indices != nil || ss.leases != nil
		}
		if heavy {
			live++
		}
	}
	return len(co.order), len(co.campaigns), live
}
