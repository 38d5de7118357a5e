package shard

import (
	"errors"
	"fmt"
	"testing"

	"gpufi/internal/core"
)

// TestOutboxCuts drives an outbox by hand, its POSTs held at a gate: a
// batch is everything up to the last record after which a cut is legal —
// never the experiment whose trace has not arrived — batches follow one
// another without gap or overlap, nothing is posted below the minimum, and
// the first error ends the sender and comes back from every later add.
func TestOutboxCuts(t *testing.T) {
	exp := func(id int) Record { return Record{Kind: KindExp, Exp: &core.Experiment{ID: id}} }
	trace := func(id int) Record { return Record{Kind: KindTrace, Trace: &core.ExperimentTrace{ID: id}} }
	span := Record{Kind: KindSpan}
	show := func(recs []Record) string {
		s := ""
		for _, r := range recs {
			switch r.Kind {
			case KindExp:
				s += fmt.Sprintf("e%d ", r.Exp.ID)
			case KindTrace:
				s += fmt.Sprintf("t%d ", r.Trace.ID)
			default:
				s += "s "
			}
		}
		return s
	}

	o := newOutbox(2)
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
	add := func(r Record, cuttable bool) {
		t.Helper()
		if err := o.add(r, cuttable); err != nil {
			t.Fatalf("add: %v", err)
		}
	}

	add(exp(1), false)
	add(span, false)
	add(trace(1), true)
	if got := <-posted; got != "e1 s t1 " {
		t.Fatalf("first POST %q", got)
	}
	// While it is out: a whole pair, then an experiment still waiting for
	// its trace. The next POST ends after the pair.
	add(exp(2), false)
	add(trace(2), true)
	add(span, false)
	add(exp(3), false)
	answer <- nil
	if got := <-posted; got != "e2 t2 " {
		t.Fatalf("second POST %q", got)
	}
	add(trace(3), true)
	add(exp(4), true) // untraced: a cut may follow at once
	answer <- nil
	if got := <-posted; got != "s e3 t3 e4 " {
		t.Fatalf("third POST %q", got)
	}
	add(exp(5), true) // one record: below the minimum, stays for the final flush
	boom := errors.New("refused")
	answer <- boom
	<-done
	if err := o.add(exp(6), true); !errors.Is(err, boom) {
		t.Fatalf("add after a failed POST: %v, want the sender's error", err)
	}
	if got := show(o.records(true)); got != "s e3 t3 e4 e5 e6 " {
		t.Fatalf("unacknowledged after the failure: %q", got)
	}
	if got := len(o.records(false)); got != 11 {
		t.Fatalf("%d records kept for a full re-send, want 11", got)
	}
	o.close()
}
