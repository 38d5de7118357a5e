package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gpufi/internal/cli/clitest"
	"gpufi/internal/core"
	"gpufi/internal/service"
	"gpufi/internal/shard"
	"gpufi/internal/store"
)

// defaults is the node an empty command line builds.
func defaults() *node {
	return &node{
		mode: "local", addr: ":8080", data: "gpufi-data", drain: 30 * time.Second,
		service: service.Options{Workers: 2, QueueDepth: 64},
		coord:   shard.Options{LeaseTTL: 15 * time.Second, ShardsPerCampaign: 8},
	}
}

// configs maps command lines to the node they build: the defaults with
// set applied.
var configs = []struct {
	args string
	set  func(n *node)
}{
	{"", func(*node) {}},
	{"-addr 127.0.0.1:9000 -data store -workers 3 -queue 8 -drain-timeout 5s -debug-addr localhost:6060",
		func(n *node) {
			n.addr, n.data, n.drain, n.debug = "127.0.0.1:9000", "store", 5*time.Second, "localhost:6060"
			n.service = service.Options{Workers: 3, QueueDepth: 8}
		}},
	{"-mode coordinator -lease-ttl 5s -shards-per-campaign 4",
		func(n *node) {
			n.mode = "coordinator"
			n.coord = shard.Options{LeaseTTL: 5 * time.Second, ShardsPerCampaign: 4}
		}},
	{"-mode worker -coordinator http://host:8080 -worker-name w1",
		func(n *node) {
			n.mode = "worker"
			n.worker = shard.Worker{Base: "http://host:8080", Name: "w1"}
		}},
}

// TestConfigs holds each command line of configs to the service, shard and
// worker options it builds.
func TestConfigs(t *testing.T) {
	for i := range configs {
		c := &configs[i]
		got := new(node)
		if err := got.flags().Parse(strings.Fields(c.args)); err != nil {
			t.Fatalf("gpufi-serve %s: %v", c.args, err)
		}
		want := defaults()
		c.set(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("gpufi-serve %s builds\n%+v\nwant\n%+v", c.args, got, want)
		}
	}
}

// modes are the roles end to end: the nodes of each run side by side in
// this process, the first serving the API on $ADDR over the store $DATA,
// and worker is the one worker every shard must have been run by.
var modes = []struct {
	name   string
	worker string
	nodes  []string
}{
	{"local", "local-1", []string{"-addr $ADDR -data $DATA -workers 1"}},
	{"coordinator", "w1", []string{
		"-mode coordinator -addr $ADDR -data $DATA -shards-per-campaign 2 -lease-ttl 5s",
		"-mode worker -coordinator http://$ADDR -worker-name w1",
	}},
}

// TestModes runs each mode through run on loopback: a small VA campaign is
// submitted, it must finish with the journal records of a library run
// (core.RunCampaign) of the same spec, and SIGTERM must stop every node
// cleanly.
func TestModes(t *testing.T) {
	spec := store.Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile", Runs: 40, Seed: 5, Workers: 1}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.ProfileApp(context.Background(), cfg.App, cfg.GPU)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunCampaign(context.Background(), cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	if err := store.WriteLog(&log, res); err != nil {
		t.Fatal(err)
	}
	want := sortedLines(log.String())

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			addr, data := freeAddr(t), t.TempDir()
			vars := strings.NewReplacer("$ADDR", addr, "$DATA", data)
			var logs lockedBuffer
			done := make(chan error, len(m.nodes))
			for _, line := range m.nodes {
				args := strings.Fields(vars.Replace(line))
				go func() { done <- run(args, io.Discard, &logs) }()
			}
			base := "http://" + addr
			waitFor(t, &logs, func() bool { return status(base+"/readyz") == http.StatusOK })
			body, _ := json.Marshal(map[string]any{"id": "va", "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
				"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed, "workers": spec.Workers})
			resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			waitFor(t, &logs, func() bool { return state(base+"/v1/campaigns/va") == "done" })
			// A local node's shards ran on its in-process worker, a
			// coordinator's on the worker node alone.
			resp, err = http.Get(base + "/v1/shards")
			if err != nil {
				t.Fatal(err)
			}
			var shards struct{ Shards []shard.Status }
			json.NewDecoder(resp.Body).Decode(&shards)
			resp.Body.Close()
			if len(shards.Shards) == 0 {
				t.Errorf("%s mode: no shards listed", m.name)
			}
			for _, sh := range shards.Shards {
				if sh.State != "done" || sh.Worker != m.worker {
					t.Errorf("%s mode: shard %s %s by %q, want done by %q", m.name, sh.ID, sh.State, sh.Worker, m.worker)
				}
			}

			// Every node has its signal handlers installed by now: the API
			// answered, and a coordinator's campaign finished only through
			// its worker's shards.
			if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			for range m.nodes {
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("node: %v\n%s", err, logs.String())
					}
				case <-time.After(30 * time.Second):
					t.Fatalf("a node did not stop on SIGTERM\n%s", logs.String())
				}
			}
			if got := journalLines(t, data); !reflect.DeepEqual(got, want) {
				t.Errorf("journal differs from the library run's:\n got: %q\nwant: %q", got, want)
			}
			// Both modes run the campaign through a coordinator, which keeps
			// a control log: shard plans and grants.
			if _, err := os.Stat(filepath.Join(data, "va", "control.jsonl")); err != nil {
				t.Errorf("%s mode: no control log: %v", m.name, err)
			}
		})
	}
}

// TestEveryFlagHasARow fails on a flag no command line of configs or modes
// sets to a value other than its default: every flag earns its keep with a
// test. It also fails on a flag that a command line of the documents
// (clitest.Docs) passes and the flag set does not define.
func TestEveryFlagHasARow(t *testing.T) {
	var scripts []string
	for _, c := range configs {
		scripts = append(scripts, c.args)
	}
	for _, m := range modes {
		scripts = append(scripts, m.nodes...)
	}
	newFlags := func() *flag.FlagSet { return new(node).flags() }
	if unset := clitest.Unset(newFlags, scripts); len(unset) > 0 {
		t.Errorf("no command line sets %v", unset)
	}
	if unknown, err := clitest.UnknownFlags("../..", "gpufi-serve", newFlags); err != nil || len(unknown) > 0 {
		t.Errorf("the documents pass gpufi-serve flags it does not define (%v): %v", err, unknown)
	}
}

// journalLines returns the lines of campaign va's journal in dir, sorted:
// the records land in completion order.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "va", "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return sortedLines(string(raw))
}

// sortedLines splits a JSONL text into its lines, sorted.
func sortedLines(text string) []string {
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// freeAddr reserves then releases a loopback port.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitFor polls cond for up to a minute.
func waitFor(t *testing.T, logs *lockedBuffer, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out\n%s", logs.String())
}

// status is url's HTTP status, 0 while nothing answers.
func status(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// state is the state field of the campaign status at url.
func state(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var st struct {
		State string `json:"state"`
	}
	json.NewDecoder(resp.Body).Decode(&st)
	return st.State
}

// lockedBuffer is the nodes' shared stderr: their loggers write to it
// from several goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
