package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/plan"
	"gpufi/internal/sim"
)

// adaptiveSpec is one library adaptive campaign of the schedule tests.
type adaptiveSpec struct {
	name      string
	app       func() *bench.App
	kernel    string
	structure sim.Structure
	runs      int
	seed      int64
	rule      plan.Rule
}

// adaptiveSpecs cover both strata, a cache point with no analytic stratum, a
// point whose structure the kernel does not have, a rule that never holds,
// a hard cap, and the exact per-outcome variant.
var adaptiveSpecs = []adaptiveSpec{
	{"va-regfile", bench.VA, "va_add", sim.StructRegFile, 200, 5, plan.Rule{TargetCI: 0.12, Confidence: 0.95, MinRuns: 40}},
	{"va-regfile-exhaust", bench.VA, "va_add", sim.StructRegFile, 120, 42, plan.Rule{TargetCI: 0.001}},
	{"bp-l1d", bench.BP, "bp_adjust", sim.StructL1D, 300, 5, plan.Rule{TargetCI: 0.1, Confidence: 0.95, MinRuns: 40}},
	{"va-shared-absent", bench.VA, "va_add", sim.StructShared, 60, 5, plan.Rule{TargetCI: 0.1}},
	{"hs-shared-cp", bench.HS, "hs_step", sim.StructShared, 200, 3,
		plan.Rule{TargetCI: 0.15, Method: plan.MethodClopperPearson, PerOutcome: true, MinRuns: 32}},
	{"va-regfile-cap", bench.VA, "va_add", sim.StructRegFile, 200, 9, plan.Rule{TargetCI: 0.05, MaxRuns: 70}},
}

func (a adaptiveSpec) config(t *testing.T) (*CampaignConfig, *Profile) {
	t.Helper()
	app := a.app()
	gpu := config.RTX2060()
	prof, err := ProfileApp(nil, app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	rule := a.rule
	return &CampaignConfig{App: app, GPU: gpu, Kernel: a.kernel, Structure: a.structure,
		Runs: a.runs, Bits: 1, Seed: a.seed, Workers: 2, Plan: &rule}, prof
}

// journalOf runs cfg and returns every record its sink received, keyed by
// experiment index, with the campaign's result.
func journalOf(t *testing.T, cfg *CampaignConfig, prof *Profile) (map[int]string, *CampaignResult, error) {
	t.Helper()
	recs := map[int]string{}
	c := *cfg
	c.Sink = func(e Experiment) error {
		raw, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, dup := recs[e.ID]; dup {
			t.Errorf("experiment %d reached the sink twice", e.ID)
		}
		recs[e.ID] = string(raw)
		return nil
	}
	res, err := RunCampaign(nil, &c, prof)
	return recs, res, err
}

// digestLine is one campaign as testdata/adaptive_parent_digests.txt holds
// it: the sha256 of its records sorted by index, of its plan report, and the
// record count.
func digestLine(name string, recs map[int]string, rep *PlanReport) string {
	ids := make([]int, 0, len(recs))
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		h.Write([]byte(recs[id] + "\n"))
	}
	raw, _ := json.Marshal(rep)
	p := sha256.Sum256(raw)
	return fmt.Sprintf("%s %s %s %d", name, hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(p[:]), len(recs))
}

// TestAdaptiveParentDigests holds fresh library adaptive campaigns to what
// the build before rounds became a schedule journaled and reported: a fresh
// campaign's queue is the same stratified order over all of [0, Runs), so
// the records and the plan report must not move. The digests were recorded
// on that build; never refresh them to make a change pass.
func TestAdaptiveParentDigests(t *testing.T) {
	f, err := os.Open("testdata/adaptive_parent_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want[strings.Fields(line)[0]] = line
		}
	}
	if len(want) != len(adaptiveSpecs) {
		t.Fatalf("%d digest lines for %d specs", len(want), len(adaptiveSpecs))
	}
	for _, a := range adaptiveSpecs {
		cfg, prof := a.config(t)
		recs, res, err := journalOf(t, cfg, prof)
		if err != nil {
			t.Fatal(err)
		}
		if got := digestLine(a.name, recs, res.Plan); got != want[a.name] {
			t.Errorf("%s:\n got %s\nwant %s", a.name, got, want[a.name])
		}
	}
}

// TestScheduleFollowsTheJournal holds the schedule to being a function of
// the journal alone. Each spec runs once through RunCampaign; then, many
// times over, the schedule is rebuilt from a random part of that journal —
// any subset, as a crashed or sharded campaign leaves it — and driven to
// the end with the same records fed back in a random order. It must hand
// out exactly the indices the library ran that the part lacked, return the
// pre-pass records the part lacked, and end on the library's plan report.
func TestScheduleFollowsTheJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range adaptiveSpecs {
		cfg, prof := a.config(t)
		var journal []Experiment
		lib := *cfg
		lib.Sink = func(e Experiment) error { journal = append(journal, e); return nil }
		want, err := RunCampaign(nil, &lib, prof)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[int]Experiment{}
		for _, e := range journal {
			byID[e.ID] = e
		}
		for trial := 0; trial < 20; trial++ {
			resumed := *cfg
			held := map[int]bool{}
			for _, e := range journal {
				if rng.Intn(3) == 0 {
					resumed.Completed = append(resumed.Completed, e.ID)
					resumed.PlanPrior = append(resumed.PlanPrior, e)
					held[e.ID] = true
				}
			}
			s, analytic, err := NewSchedule(nil, &resumed, prof)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range analytic {
				if held[e.ID] || byID[e.ID].Detail != AnalyticDetail {
					t.Fatalf("%s: pre-pass record %d: held %v, the library journaled %+v", a.name, e.ID, held[e.ID], byID[e.ID])
				}
				held[e.ID] = true
			}
			for round := s.Next(); round != nil; round = s.Next() {
				rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
				for _, i := range round {
					e, ok := byID[i]
					if !ok || held[i] {
						t.Fatalf("%s: the schedule handed out %d: in the library's journal %v, held %v", a.name, i, ok, held[i])
					}
					held[i] = true
					s.Add(e)
				}
			}
			if len(held) != len(journal) {
				t.Fatalf("%s: the schedule stopped with %d of the library's %d records", a.name, len(held), len(journal))
			}
			if got := s.Report(); (got == nil) != (want.Plan == nil) || got != nil && *got != *want.Plan {
				t.Fatalf("%s: report %+v, the library's %+v", a.name, got, want.Plan)
			}
		}
	}
}
