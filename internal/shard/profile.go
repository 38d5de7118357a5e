package shard

import (
	"context"
	"fmt"
	"sync"

	"gpufi/internal/core"
	"gpufi/internal/store"
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

// get returns the profile of cfg's application on cfg's GPU, profiling it
// on a miss.
func (pc *profileCache) get(ctx context.Context, spec store.Spec, cfg *core.CampaignConfig) (*core.Profile, error) {
	key := profileKey(spec, cfg)
	pc.mu.Lock()
	prof := pc.m[key]
	pc.mu.Unlock()
	if prof != nil {
		return prof, nil
	}
	prof, err := core.ProfileApp(ctx, cfg.App, cfg.GPU)
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
func profileKey(spec store.Spec, cfg *core.CampaignConfig) string {
	return fmt.Sprintf("%s|%d|%s", cfg.App.Name, max(spec.Scale, 1), cfg.GPU.Marshal())
}
