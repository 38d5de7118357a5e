package shard_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"gpufi/internal/store"
)

// TestChaosProcessKill is the out-of-process chaos gate: real gpufi-serve
// processes — one coordinator, two workers — with the coordinator
// SIGKILLed twice mid-campaign and restarted over the same data
// directory. No test hooks, no shared memory: the only thing connecting
// lifetimes is the disk. Gated behind GPUFI_CHAOS_PROC=1 because it
// builds the binary and runs multi-second wall-clock phases; CI sets it.
func TestChaosProcessKill(t *testing.T) {
	if os.Getenv("GPUFI_CHAOS_PROC") != "1" {
		t.Skip("set GPUFI_CHAOS_PROC=1 to run the subprocess chaos gate")
	}

	bin := filepath.Join(t.TempDir(), "gpufi-serve")
	build := exec.Command("go", "build", "-o", bin, "gpufi/cmd/gpufi-serve")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build gpufi-serve: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr

	coord := startCoordinatorProc(t, bin, addr, dataDir)
	waitReady(t, base, time.Minute)

	for _, name := range []string{"pw1", "pw2"} {
		startWorkerProc(t, bin, base, name)
	}

	// A shard's sender posts whatever its engine finished while the last
	// POST was in flight, so batches follow the coordinator's round trips,
	// not the record count, and the engines keep running through each
	// outage. 6,000 runs leave work for eight round trips after the first
	// restart, so the second kill lands too.
	specs := map[string]store.Spec{
		"proc-forked": {App: "VA", GPU: "RTX2060", Kernel: "va_add", Structure: "regfile",
			Runs: 6000, Seed: 17, Workers: 2},
	}
	for id, spec := range specs {
		submit(t, base, map[string]any{
			"id": id, "app": spec.App, "gpu": spec.GPU, "kernel": spec.Kernel,
			"structure": spec.Structure, "runs": spec.Runs, "seed": spec.Seed,
			"workers": spec.Workers,
		})
	}

	// Two SIGKILLs: one as soon as batches land, one deeper in. Each is
	// skipped if every campaign finished first — the assertions below
	// hold either way.
	for round, threshold := range []float64{2, 8} {
		if !killOnBatches(t, coord, base, threshold, allDone(base, specs), 2*time.Minute) {
			t.Logf("kill %d skipped: campaigns finished first", round+1)
			break
		}
		t.Logf("kill %d landed at threshold %v; restarting coordinator", round+1, threshold)
		coord = startCoordinatorProc(t, bin, addr, dataDir)
		waitReady(t, base, time.Minute)
	}

	for id := range specs {
		chaosWaitDone(t, base, id, 3*time.Minute)
	}

	// Differential: open the coordinator's store read-only and compare
	// each campaign with an uninterrupted library run.
	st, err := store.Open(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	for id, spec := range specs {
		local, _, _ := library(t, spec)
		sharded, dups := journalRecords(t, st, id)
		if dups != 0 {
			t.Errorf("%s: %d duplicate exp records after SIGKILL recovery", id, dups)
		}
		for i := 0; i < spec.Runs; i++ {
			if _, ok := sharded[fmt.Sprintf("exp:%d", i)]; !ok {
				t.Errorf("%s: experiment %d stranded", id, i)
			}
		}
		diffJournals(t, id, sharded, local)
		writeChaosDigest(t, id, sharded)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// freeAddr reserves then releases a loopback port. The tiny race against
// another process grabbing it is acceptable in CI.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func startCoordinatorProc(t *testing.T, bin, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-mode", "coordinator", "-addr", addr, "-data", dataDir,
		"-lease-ttl", "5s", "-shards-per-campaign", "4", "-workers", "2")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

func startWorkerProc(t *testing.T, bin, base, name string) {
	t.Helper()
	cmd := exec.Command(bin,
		"-mode", "worker", "-coordinator", base, "-worker-name", name)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// waitReady polls /readyz until the process answers 200.
func waitReady(t *testing.T, base string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("coordinator at %s never became ready", base)
}

// killOnBatches SIGKILLs the coordinator once the /metrics shard_batches
// counter reaches threshold, unless done() reports every campaign
// finished first. Reports whether the kill landed.
func killOnBatches(t *testing.T, coord *exec.Cmd, base string, threshold float64, done func() bool, within time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if done() {
			return false
		}
		if batchCount(base) >= threshold {
			if err := coord.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			coord.Wait()
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("batch threshold never reached")
	return false
}

// batchCount reads shard_batches from the flat JSON /metrics view, -1
// while the coordinator is unreachable.
func batchCount(base string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var snap map[string]any
	if json.NewDecoder(resp.Body).Decode(&snap) != nil {
		return -1
	}
	v, _ := snap["shard_batches"].(float64)
	return v
}

// allDone reports whether every campaign reached the done state.
func allDone(base string, specs map[string]store.Spec) func() bool {
	return func() bool {
		for id := range specs {
			var st struct {
				State string `json:"state"`
			}
			resp, err := http.Get(base + "/v1/campaigns/" + id)
			if err != nil {
				return false
			}
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State != "done" {
				return false
			}
		}
		return true
	}
}
