package core

import "context"

// SetPrefixHook installs fn to run on every prefix goroutine at each capture,
// with the number of captures that prefix took before it, and returns a
// function that removes it.
func SetPrefixHook(fn func(n int)) (restore func()) {
	prefixHook.Store(&fn)
	return func() { prefixHook.Store(nil) }
}

// SetReleaseHook installs fn to run on a worker each time a job lets go of
// its cluster's template at the snapshot's launch, with the job's experiment
// index, and returns a function that removes it.
func SetReleaseHook(fn func(i int)) (restore func()) {
	releaseHook.Store(&fn)
	return func() { releaseHook.Store(nil) }
}

// runPoints runs points as one engine run of a session of their own, closed
// when the run returns.
func runPoints(ctx context.Context, prof *Profile, points []*point) ([]*CampaignResult, error) {
	s := &Session{prof: prof}
	defer s.Close()
	return s.runPoints(ctx, points)
}
