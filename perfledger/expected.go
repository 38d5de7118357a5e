package main

import (
	_ "embed"
	"encoding/json"
	"os"
)

// defaultSeed is the seed expected.json was recorded with.
const defaultSeed = 7

//go:embed expected.json
var expectedJSON []byte

// expectedSet holds the exact simulated statistics of every workload for
// one seed on one platform. It is rewritten by `-record`.
type expectedSet struct {
	Seed      int64            `json:"seed"`
	Platform  string           `json:"platform"` // GOOS/GOARCH the statistics were recorded on
	Workloads map[string]exact `json:"workloads"`
}

func loadExpected() (expectedSet, error) {
	var e expectedSet
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

// checkExpected compares the run's exact statistics with expected.json.
// The comparison is skipped, with a note, for another seed or platform: a
// non-default seed still runs every other check.
func checkExpected(res *runResult) {
	exp, err := loadExpected()
	if err != nil {
		res.note("expected.json unreadable: %v", err)
		res.Correct = false
		return
	}
	if res.Seed != exp.Seed {
		res.note("seed %d is not the recorded seed %d: expected.json comparison skipped", res.Seed, exp.Seed)
		return
	}
	if p := hostFingerprint().platform(); p != exp.Platform {
		res.note("platform %s is not the recorded %s: expected.json comparison skipped", p, exp.Platform)
		return
	}
	want, ok := exp.Workloads[res.Workload]
	if !ok {
		res.note("expected.json has no entry for %s: comparison skipped", res.Workload)
		return
	}
	if !res.Exact.equal(want) {
		got, _ := json.Marshal(res.Exact)
		res.note("simulated statistics differ from expected.json: got %s", got)
		res.Correct = false
		res.Failed = res.Attempted
	}
}

// writeExpected rewrites expected.json from a full result set.
func writeExpected(path string, seed int64, runs map[string]*runResult) error {
	e := expectedSet{Seed: seed, Platform: hostFingerprint().platform(), Workloads: map[string]exact{}}
	for name, r := range runs {
		e.Workloads[name] = r.Exact
	}
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
