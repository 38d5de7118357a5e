package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gpufi/internal/core"
)

// TestOutboxCuts drives an outbox by hand, its POSTs held at a gate: a
// batch is everything up to the last experiment record — a span rides along
// with the experiment after it — batches follow one another without gap or
// overlap, nothing is posted below the minimum, an acknowledged batch is let
// go, and the first error ends the sender and comes back from every later
// add.
func TestOutboxCuts(t *testing.T) {
	exp := func(id int) Record { return Record{Kind: KindExp, Exp: &core.Experiment{ID: id}} }
	span := Record{Kind: KindSpan}
	show := func(recs []Record) string {
		s := ""
		for _, r := range recs {
			if r.Kind == KindExp {
				s += fmt.Sprintf("e%d ", r.Exp.ID)
			} else {
				s += "s "
			}
		}
		return s
	}

	o := newOutbox(2, time.Hour)
	posted := make(chan string)
	answer := make(chan error)
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.run(func(recs []Record) error {
			posted <- show(recs)
			return <-answer
		})
	}()
	add := func(r Record) {
		t.Helper()
		if err := o.add(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	cutAt := func(want int) {
		t.Helper()
		o.mu.Lock()
		defer o.mu.Unlock()
		if o.cut != want {
			t.Fatalf("cut after %d records, want %d", o.cut, want)
		}
	}

	add(exp(1))
	add(span)
	cutAt(1)
	add(exp(2))
	if got := <-posted; got != "e1 s e2 " {
		t.Fatalf("first POST %q", got)
	}
	// While it is out: one experiment and a span behind it. One record up to
	// the cut is below the minimum, so nothing is posted until the next
	// experiment, and the span travels with it.
	add(exp(3))
	add(span)
	answer <- nil
	add(exp(4))
	if got := <-posted; got != "e3 s e4 " {
		t.Fatalf("second POST %q", got)
	}
	add(span)
	cutAt(3) // e3 s e4 are out; the span waits behind them
	answer <- nil
	add(exp(5))
	if got := <-posted; got != "s e5 " {
		t.Fatalf("third POST %q", got)
	}
	add(exp(6))
	boom := errors.New("refused")
	answer <- boom
	<-done
	if err := o.add(exp(7)); !errors.Is(err, boom) {
		t.Fatalf("add after a failed POST: %v, want the sender's error", err)
	}
	if got := show(o.records()); got != "s e5 e6 e7 " {
		t.Fatalf("kept after the failure: %q, want exactly the unacknowledged records", got)
	}
	o.close()
}

// TestOutboxIdle holds the sender to its other trigger: with fewer records
// than the minimum ready, it posts once idle has passed since the last POST
// came back — what lies up to the cut, or an empty batch, never a nil one
// (it goes on the wire as "records":[]) — and a span past the cut waits.
func TestOutboxIdle(t *testing.T) {
	o := newOutbox(100, 10*time.Millisecond)
	posted := make(chan string) // the POST's records by kind; "nil" for a nil slice
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.run(func(recs []Record) error {
			s := "nil"
			if recs != nil {
				s = "["
				for _, r := range recs {
					s += r.Kind + " "
				}
				s += "]"
			}
			posted <- s
			return nil
		})
	}()
	if got := <-posted; got != "[]" {
		t.Fatalf("first idle POST carries %s, want an empty batch", got)
	}
	o.add(Record{Kind: KindExp, Exp: &core.Experiment{ID: 1}})
	o.add(Record{Kind: KindSpan})
	if got := <-posted; got != "[exp ]" {
		t.Fatalf("second idle POST carries %s, want the one experiment up to the cut", got)
	}
	if got := <-posted; got != "[]" {
		t.Fatalf("third idle POST carries %s, want none: the span waits for an experiment", got)
	}
	o.close()
	select {
	case <-posted: // a POST that was already due when close came
	case <-done:
	}
	<-done
}
