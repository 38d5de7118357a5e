package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpufi"
	"gpufi/internal/cli/clitest"
	"gpufi/internal/core"
	"gpufi/internal/sim"
	"gpufi/internal/store"
)

// The two campaign points of EXPERIMENTS.md § Extensions, and a small VA
// point for everything else.
const (
	sp = "-app SP -kernel sp_dot -structure regfile -n 40 -seed 5"
	km = "-app KM -kernel km_assign -structure regfile -n 40 -seed 5"
	va = "-app VA -n 40 -seed 5"
)

// documented is every command EXPERIMENTS.md § Extensions quotes, and a row
// for each flag they leave at its default, with the file in testdata
// holding its transcript (clitest.Golden: stdout, then any stderr, exit
// status and written files). Rows run in a copy of testdata/fixtures,
// whose partial/ store holds the first 19 experiments of va's journal,
// written with -workers 2, and a torn record. This table is the one place
// these commands are written.
var documented = []struct {
	file string
	args string
}{
	{"sp.txt", sp},
	{"sp_ecc.txt", sp + " -ecc"},
	{"sp_bits3.txt", sp + " -bits 3"},
	{"sp_bits3_ecc.txt", sp + " -bits 3 -ecc"},
	{"sp_warp.txt", sp + " -warp"},
	{"km.txt", km},
	{"km_lenient.txt", km + " -lenient"},

	{"list.txt", "-list"},
	{"va_quadro_l1d.txt", va + " -gpu QuadroGV100 -structure l1d"},
	{"hs_shared_blocks2.txt", "-app HS -structure shared -blocks 2 -n 40 -seed 5"},
	{"va_scale2.txt", va + " -scale 2"},
	{"va_l2queue.txt", va + " -l2queue 32"},
	{"va_log.txt", va + " -workers 1 -log va.jsonl"},
	{"va_trace.txt", va + " -log va.jsonl -trace va-traces.jsonl"},
	{"va_stats.txt", va + " -stats -instr-trace va.trace"},
	{"va_progress.txt", va + " -progress"},
	{"va_exp_timeout.txt", va + " -workers 1 -exp-timeout 1m -store st"},
	{"va_target_ci.txt", "-app VA -n 500 -seed 5 -target-ci 0.1"},
	{"va_store_target_ci.txt", "-app VA -n 500 -seed 5 -target-ci 0.1 -workers 1 -store st -progress"},
	{"va_store.txt", va + " -workers 1 -store st ; " + va + " -workers 1 -store st"},
	{"va_store_trace.txt", va + " -workers 1 -store st -trace on"},
	{"va_store_workers.txt", va + " -workers 1 -store st ; " + va + " -workers 2 -store st"},
	{"va_store_resume.txt", va + " -workers 1 -store partial"},

	{"err_exp_timeout.txt", va + " -exp-timeout 500us"},
	{"err_store_target_ci.txt", va + " -workers 1 -target-ci 0.7 -store st ; " + va + " -workers 1 -target-ci 0.1 -store st"},
	{"err_kernel.txt", "-app VA -kernel nope -n 40"},
	{"err_n0.txt", "-app VA -n 0"},
	{"err_titan_l1d.txt", "-gpu GTXTitan -structure l1d -n 40"},
	{"err_resume.txt", "-resume"},
	{"err_flag.txt", "-bogus"},
	{"help.txt", "-h"},
}

// TestDocumentedCommands reruns each command of the table and requires its
// transcript to equal the recorded file byte for byte. Outcomes are
// deterministic per seed on any host and worker count, so a difference is
// a change in what the simulator, the engine or the flag wiring computes.
func TestDocumentedCommands(t *testing.T) {
	for _, c := range documented {
		t.Run(c.file, func(t *testing.T) {
			clitest.Golden(t, "gpufi", run, "testdata/fixtures", c.args, c.file)
		})
	}
}

// TestEveryFlagHasARow fails on a flag no row of documented sets to a value
// other than its default: every flag earns its keep with a test. It also
// fails on a flag that a command line of the documents (clitest.Docs) passes
// and the flag set does not define.
func TestEveryFlagHasARow(t *testing.T) {
	var scripts []string
	for _, c := range documented {
		scripts = append(scripts, c.args)
	}
	newFlags := func() *flag.FlagSet { return new(options).flags() }
	if unset := clitest.Unset(newFlags, scripts); len(unset) > 0 {
		t.Errorf("no row of documented sets %v", unset)
	}
	if unknown, err := clitest.UnknownFlags("../..", "gpufi", newFlags); err != nil || len(unknown) > 0 {
		t.Errorf("the documents pass gpufi flags it does not define (%v): %v", err, unknown)
	}
}

// TestStoreInterruptResumes interrupts a -store campaign point the way
// SIGINT does, by cancelling its context once k experiments have started,
// and reruns it: the interrupted call returns context.Canceled and what was
// journaled, the node's worker goroutine exits with it, and the rerun
// finishes the campaign. The journal then holds, keyed by id, what an
// uninterrupted run's holds, each experiment once, and so does its done
// record.
func TestStoreInterruptResumes(t *testing.T) {
	var o options
	if err := o.flags().Parse(strings.Fields("-app VA -n 200 -seed 5 -workers 1")); err != nil {
		t.Fatal(err)
	}
	spec := o.spec
	spec.Kernel = "va_add"
	id := spec.ID()
	point := func(ctx context.Context, dir string, stdout io.Writer) (*gpufi.CampaignResult, *node, error) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := startNode(ctx, st)
		res, err := runPoint(ctx, stdout, n, spec, nil, nil)
		return res, n, err
	}

	refDir := t.TempDir()
	want, n, err := point(context.Background(), refDir, io.Discard)
	n.stop()
	if err != nil {
		t.Fatal(err)
	}

	const k = 120
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	restore := core.SetExperimentHook(func(int, *sim.FaultSpec) {
		if started.Add(1) == k {
			cancel()
		}
	})
	partial, n, err := point(ctx, dir, io.Discard)
	core.SetExperimentHook(restore)
	if !errors.Is(err, context.Canceled) || partial == nil || partial.Counts.Total() >= spec.Runs {
		t.Fatalf("interrupted point: %v with %+v, want context.Canceled and a partial result", err, partial)
	}
	select {
	case <-n.exited:
	case <-time.After(time.Minute):
		t.Fatal("the worker goroutine outlived the interrupted point")
	}

	var out bytes.Buffer
	got, n, err := point(context.Background(), dir, &out)
	n.stop()
	if err != nil {
		t.Fatal(err)
	}
	resuming := fmt.Sprintf("resuming %s: %d of %d experiments already journaled\n", id, partial.Counts.Total(), spec.Runs)
	if out.String() != resuming {
		t.Errorf("rerun printed %q, want %q", out.String(), resuming)
	}
	if got.Counts != want.Counts {
		t.Errorf("resumed counts %+v, uninterrupted %+v", got.Counts, want.Counts)
	}
	if a, b := journal(t, filepath.Join(dir, id)), journal(t, filepath.Join(refDir, id)); !reflect.DeepEqual(a, b) {
		t.Errorf("the resumed journal holds %d records, the uninterrupted one %d, and they differ", len(a), len(b))
	}
	if a, b := done(t, filepath.Join(dir, id)), done(t, filepath.Join(refDir, id)); !reflect.DeepEqual(a, b) {
		t.Errorf("done record %+v, uninterrupted %+v", a, b)
	}
}

// journal keys a campaign directory's journal lines by record type and id,
// failing on an experiment record written twice.
func journal(t *testing.T, dir string) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
			ID   int    `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(probe.Type, ":", probe.ID)
		if _, dup := recs[key]; dup {
			t.Errorf("%s: record %s written twice", dir, key)
		}
		recs[key] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// done reads the done record of a campaign directory's control log.
func done(t *testing.T, dir string) store.ControlRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "control.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec store.ControlRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind == store.CtlDone {
			return rec
		}
	}
	t.Fatalf("%s: the control log holds no done record", dir)
	return store.ControlRecord{}
}
