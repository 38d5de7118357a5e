package shard

import (
	"context"
	"fmt"
	"sync"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/core"
)

// profileCache holds fault-free profiles by profileKey. A coordinator keeps
// one, and its in-process workers share it; a worker over HTTP keeps its
// own. So a process profiles each (application, scale, GPU) once, whatever
// the number of campaigns and shards over it: the profile is a deterministic
// fault-free run, the same on every node and every time.
type profileCache struct {
	mu sync.Mutex
	m  map[string]*core.Profile
}

// get returns the profile of app, built at scale, on gpu, profiling it on a
// miss.
func (pc *profileCache) get(ctx context.Context, app *bench.App, scale int, gpu *config.GPU) (*core.Profile, error) {
	key := profileKey(app, scale, gpu)
	pc.mu.Lock()
	prof := pc.m[key]
	pc.mu.Unlock()
	if prof != nil {
		return prof, nil
	}
	prof, err := core.ProfileApp(ctx, app, gpu)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	if pc.m == nil {
		pc.m = make(map[string]*core.Profile)
	}
	pc.m[key] = prof
	pc.mu.Unlock()
	return prof, nil
}

// profileKey names everything a fault-free profile depends on: the
// application at its scale and the whole resolved GPU, so any spec field
// that reaches the GPU keys a profile of its own.
func profileKey(app *bench.App, scale int, gpu *config.GPU) string {
	return fmt.Sprintf("%s|%d|%s", app.Name, max(scale, 1), gpu.Marshal())
}

// Profile returns the fault-free profile of app, built at scale, on gpu: the
// one the coordinator plans with and its in-process workers run against,
// profiled on a miss. A caller that needs it before its first campaign takes
// it here, and the process profiles once.
func (co *Coordinator) Profile(ctx context.Context, app *bench.App, scale int, gpu *config.GPU) (*core.Profile, error) {
	return co.profiles.get(ctx, app, scale, gpu)
}
