package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"

	"gpufi/internal/avf"
	"gpufi/internal/obs"
	"gpufi/internal/sim"
)

// This file is the experiment sandbox: a recovering boundary around every
// single injection run. An injected bit-flip can drive the simulated
// machine anywhere — including into simulator states nobody anticipated —
// and the campaign must treat "the simulator itself panicked or hung" as a
// classified outcome of that one experiment, never as the death of the
// other N-1 runs of the batch. CHAOS (gem5) and InjectV take the same
// stance for their injector-side failures; see DESIGN.md "Failure
// taxonomy".

// The sandbox's counters, read back by SandboxStats: simulator panics
// converted to Crash outcomes, wall-clock deadlines converted to Timeout
// outcomes, and poisoned fork vessels discarded by the engine instead of
// being Refork-reused.
var (
	expPanics = obs.Default().Counter("gpufi_exp_panics",
		"Simulator panics recovered by the experiment sandbox.")
	expDeadlines = obs.Default().Counter("gpufi_exp_deadlines",
		"Experiments cut by the wall-clock deadline.")
	vesselsDiscarded = obs.Default().Counter("gpufi_vessels_discarded",
		"Poisoned fork vessels discarded by the engine.")
)

// SandboxStats returns the process-wide experiment-sandbox counters:
// recovered simulator panics, enforced wall-clock deadlines, and poisoned
// fork vessels discarded.
func SandboxStats() (panics, deadlines, discarded int64) {
	return expPanics.Load(), expDeadlines.Load(), vesselsDiscarded.Load()
}

var (
	hookMu     sync.RWMutex
	globalHook func(id int, spec *sim.FaultSpec)
)

// SetExperimentHook installs a process-wide hook invoked at the start of
// every sandboxed experiment, inside the recovery boundary, before the
// simulator runs. It exists so tests — including tests in other packages,
// like the gpufi-serve worker-survival suite — can model a simulator bug
// (a hook that panics or blocks) without patching the simulator.
// Production code must leave it unset. The previous hook is returned so
// tests can restore it.
func SetExperimentHook(fn func(id int, spec *sim.FaultSpec)) func(int, *sim.FaultSpec) {
	hookMu.Lock()
	defer hookMu.Unlock()
	prev := globalHook
	globalHook = fn
	return prev
}

func loadExperimentHook() func(int, *sim.FaultSpec) {
	hookMu.RLock()
	defer hookMu.RUnlock()
	return globalHook
}

// runExperimentSandboxed wraps runExperiment in the sandbox boundary:
//
//   - A simulator panic is recovered and classified as a quarantined
//     avf.Crash carrying the fault spec, injection cycle and a stack
//     digest, so the poison spec is diagnosable from the journal alone.
//   - With cfg.ExpTimeout set, the run executes under a per-experiment
//     wall-clock deadline; expiry is classified as a quarantined
//     avf.Timeout. This catches simulator-side hangs where the cycle
//     counter stops advancing, which the cycle-limit cannot see.
//   - Campaign-level cancellation still propagates as an abort error,
//     never as an outcome.
//
// poisoned reports that the vessel g ran a panicked or deadlined
// experiment and must not be Refork-reused.
func runExperimentSandboxed(ctx context.Context, cfg *CampaignConfig, prof *Profile,
	g *sim.GPU, spec *sim.FaultSpec, extras []*sim.FaultSpec, i int, t *phaseNS) (exp Experiment, poisoned bool, err error) {

	expStart := time.Now()
	defer func() { expHist.Observe(time.Since(expStart).Seconds()) }()

	runCtx := ctx
	if cfg.ExpTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.ExpTimeout)
		defer cancel()
	}
	var (
		panicked bool
		panicVal any
		digest   string
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked, panicVal, digest = true, r, stackDigest()
			}
		}()
		if hook := loadExperimentHook(); hook != nil {
			hook(i, spec)
		}
		exp, err = runExperiment(runCtx, cfg, prof, g, spec, extras, i, t)
	}()

	switch {
	case panicked:
		expPanics.Inc()
		exp = Experiment{
			ID: i, Cycle: spec.Cycle, Bits: spec.BitPositions,
			Outcome: avf.Crash, Quarantined: true, Cycles: g.Cycle(),
			Detail: fmt.Sprintf("quarantined: simulator panic: %v [%s cycle %d] stack %s",
				panicVal, spec.Structure, spec.Cycle, digest),
		}
		exp.Effect = exp.Outcome.String()
		if cfg.Trace {
			// Reading tracer state is safe after a recovered panic: the
			// tracer only holds plain maps and slices this goroutine wrote.
			finishTrace(g, &exp)
		}
		return exp, true, nil
	case err != nil && isCancel(err):
		if ctx.Err() != nil {
			// The campaign context itself ended: an abort, not an outcome.
			return Experiment{}, false, err
		}
		// Only the per-experiment deadline expired: the simulator hung on
		// this spec. Classify, quarantine, and keep the campaign going.
		expDeadlines.Inc()
		exp = Experiment{
			ID: i, Cycle: spec.Cycle, Bits: spec.BitPositions,
			Outcome: avf.Timeout, Quarantined: true, Cycles: g.Cycle(),
			Detail: fmt.Sprintf("quarantined: wall-clock deadline %v exceeded [%s cycle %d]",
				cfg.ExpTimeout, spec.Structure, spec.Cycle),
		}
		exp.Effect = exp.Outcome.String()
		if cfg.Trace {
			finishTrace(g, &exp)
		}
		return exp, true, nil
	}
	return exp, false, err
}

// stackDigest hashes the panicking goroutine's call sites into a short
// stable token for the quarantine record. Only the file:line frames are
// hashed (not the header, argument values or code offsets, which vary run
// to run), so re-running the same poison spec yields the same digest and
// duplicate crash reports are groupable.
func stackDigest() string {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	h := fnv.New32a()
	for _, line := range bytes.Split(buf[:n], []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("\t")) {
			continue
		}
		if i := bytes.Index(line, []byte(" +0x")); i >= 0 {
			line = line[:i]
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%08x", h.Sum32())
}
