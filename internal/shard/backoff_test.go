package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBackoffSequence pins the jittered-exponential envelope: every delay
// lands in [nominal/2, nominal], the nominal doubles per retry, and it
// saturates at the cap instead of growing without bound.
func TestBackoffSequence(t *testing.T) {
	nominal := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 800 * time.Millisecond, 800 * time.Millisecond,
	}
	for trial := 0; trial < 50; trial++ {
		b := &backoff{base: 100 * time.Millisecond, max: 800 * time.Millisecond}
		for i, n := range nominal {
			d := b.next()
			if d < n/2 || d > n {
				t.Fatalf("retry %d: delay %v outside [%v, %v]", i, d, n/2, n)
			}
		}
	}
}

// TestJitterBounds pins the claim-poll spread: jitter(d) ∈ [d/2, 3d/2),
// and non-positive intervals pass through as zero (no accidental
// busy-loop, no panic from rand.N(0)).
func TestJitterBounds(t *testing.T) {
	const d = 100 * time.Millisecond
	for trial := 0; trial < 200; trial++ {
		j := jitter(d)
		if j < d/2 || j >= 3*d/2 {
			t.Fatalf("jitter(%v) = %v outside [%v, %v)", d, j, d/2, 3*d/2)
		}
	}
	if j := jitter(0); j != 0 {
		t.Fatalf("jitter(0) = %v", j)
	}
	if j := jitter(-time.Second); j != 0 {
		t.Fatalf("jitter(-1s) = %v", j)
	}
}

// TestIsOutage pins the outage classification: transport failures and the
// recovering signal park the worker; protocol verdicts do not.
func TestIsOutage(t *testing.T) {
	outages := []error{
		errUnreachable,
		fmt.Errorf("%w: connection refused", errUnreachable),
		ErrRecovering,
		fmt.Errorf("claim: %w", ErrRecovering),
	}
	for _, err := range outages {
		if !isOutage(err) {
			t.Errorf("isOutage(%v) = false", err)
		}
	}
	verdicts := []error{
		nil, ErrLeaseFenced, ErrLeaseRevoked, ErrNoWork,
		ErrCampaignClosed, errors.New("http 500"),
	}
	for _, err := range verdicts {
		if isOutage(err) {
			t.Errorf("isOutage(%v) = true", err)
		}
	}
}

// TestHeartbeatInterval pins the idle interval's guard: a missing TTL gets
// the conservative default, and a sub-millisecond TTL still yields a
// positive interval, never a zero that would busy-loop the sender.
func TestHeartbeatInterval(t *testing.T) {
	if iv := heartbeatInterval(0); iv != 5*time.Second {
		t.Errorf("heartbeatInterval(0) = %v, want 5s", iv)
	}
	if iv := heartbeatInterval(-time.Second); iv != 5*time.Second {
		t.Errorf("heartbeatInterval(-1s) = %v, want 5s", iv)
	}
	if iv := heartbeatInterval(time.Nanosecond); iv != time.Millisecond {
		t.Errorf("heartbeatInterval(1ns) = %v, want 1ms floor", iv)
	}
	if iv := heartbeatInterval(30 * time.Second); iv != 10*time.Second {
		t.Errorf("heartbeatInterval(30s) = %v, want ttl/3", iv)
	}
}

// TestSleepCtx pins the cancellation contract: a live context sleeps the
// full duration, a cancelled one returns immediately with false, and a
// closed wake ends the sleep early with true.
func TestSleepCtx(t *testing.T) {
	if !sleepCtx(context.Background(), 0, nil) {
		t.Error("sleepCtx(live, 0) = false")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if sleepCtx(ctx, time.Hour, nil) {
		t.Error("sleepCtx(cancelled, 1h) = true")
	}
	if time.Since(start) > time.Second {
		t.Error("sleepCtx did not return promptly on cancellation")
	}
	wake := make(chan struct{})
	close(wake)
	start = time.Now()
	if !sleepCtx(context.Background(), time.Hour, wake) {
		t.Error("sleepCtx(live, 1h, closed wake) = false")
	}
	if time.Since(start) > time.Second {
		t.Error("sleepCtx did not return promptly on a closed wake")
	}
}
