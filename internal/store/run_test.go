package store

import (
	"context"

	"gpufi/internal/core"
)

// runCampaign is these tests' campaign driver: create the journal (or resume
// it, skipping every journaled experiment), run the engine with Record as its
// sink, and on completion write the done record. A cancelled run keeps what
// finished and returns the merged partial result with ctx's error. A nil prof
// is profiled first; onExp sees every experiment after it is journaled.
// Outside these tests a campaign runs through the shard coordinator, which
// journals through the same Campaign calls.
func runCampaign(ctx context.Context, s *Store, id string, spec Spec, prof *core.Profile,
	onExp func(core.Experiment)) (*core.CampaignResult, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	c, err := s.CreateOrResume(id, spec)
	if err != nil {
		return nil, err
	}
	if c.Done {
		return c.MergedResult(nil), nil
	}
	defer c.Close()
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Completed, cfg.PlanPrior = c.CompletedIDs(), c.Prior
	cfg.Sink = func(exp core.Experiment) error {
		if err := c.Record(exp); err != nil {
			return err
		}
		if onExp != nil {
			onExp(exp)
		}
		return nil
	}
	if prof == nil {
		if prof, err = core.ProfileApp(ctx, cfg.App, cfg.GPU); err != nil {
			return nil, err
		}
	}
	res, err := core.RunCampaign(ctx, cfg, prof)
	if res == nil {
		return nil, err
	}
	merged := c.MergedResult(res)
	if err != nil {
		return merged, err
	}
	_, _, ctl, err := s.OpenControlWAL(c.ID)
	if err != nil {
		return merged, err
	}
	defer ctl.Close()
	return merged, c.Finish(merged, ctl)
}
