package shard

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"gpufi/internal/obs"
)

// Worker-side resilience instruments. They live in the process-wide
// registry: a worker node's debug endpoint (or any embedder's scrape)
// reports them without plumbing.
var (
	backoffRetries = obs.Default().Counter("gpufi_worker_backoff_retries_total",
		"Retries against an unreachable or recovering coordinator, across all workers in this process.")
	backoffParks = obs.Default().Counter("gpufi_worker_backoff_parked_total",
		"Times a worker parked itself to wait out a coordinator outage.")
)

// backoff produces a jittered exponential delay sequence: each call to
// next doubles the nominal delay up to the cap and returns a uniform pick
// from [nominal/2, nominal] ("full jitter" halved at the floor), so a
// fleet of workers hitting the same dead coordinator spreads out instead
// of thundering in lockstep.
type backoff struct {
	base, max time.Duration
	d         time.Duration
}

// curve is the backoff every request starts from: backoffBase doubling to
// backoffMax. Only tests replace it (export_test.go).
var curve = backoff{base: backoffBase, max: backoffMax}

func (b *backoff) next() time.Duration {
	if b.d <= 0 {
		b.d = b.base
	}
	d := b.d
	b.d *= 2
	if b.d > b.max {
		b.d = b.max
	}
	return d/2 + rand.N(d/2+1)
}

// jitter spreads a nominal interval over [d/2, 3d/2): the claim poll uses
// it so idle workers drift apart instead of polling in phase.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + rand.N(d)
}

// errUnreachable marks a transport-level failure: the coordinator did not
// answer at all (connection refused, reset, timeout), as opposed to
// answering with a typed protocol error. Workers treat it — together with
// the typed ErrRecovering — as an outage to park through, not a verdict.
var errUnreachable = errors.New("shard: coordinator unreachable")

// isOutage reports whether err means the coordinator is temporarily gone
// (down, restarting, or rebuilding) rather than refusing the request.
func isOutage(err error) bool {
	return errors.Is(err, errUnreachable) || errors.Is(err, ErrRecovering)
}

// sleepCtx sleeps d, or until wake closes or ctx is done, reporting
// whether ctx is still live. A nil wake never fires.
func sleepCtx(ctx context.Context, d time.Duration, wake <-chan struct{}) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	case <-wake:
		return true
	}
}
