package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpufi/internal/bench"
	"gpufi/internal/config"
	"gpufi/internal/core"
	"gpufi/internal/sim"
)

func TestLogRoundTrip(t *testing.T) {
	app := bench.VA()
	gpu := config.RTX2060()
	prof, _ := core.ProfileApp(nil, app, gpu)
	cfg := &core.CampaignConfig{App: app, GPU: gpu, Kernel: "va_add",
		Structure: sim.StructRegFile, Runs: 12, Bits: 1, Seed: 5}
	res, err := core.RunCampaign(nil, cfg, prof)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, res); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("parsed %d campaigns", len(parsed))
	}
	got := parsed[0]
	if got.Counts != res.Counts {
		t.Errorf("counts mismatch: %+v vs %+v", got.Counts, res.Counts)
	}
	if got.App != "VA" || got.Structure != "regfile" || got.Runs != 12 {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Exps) != len(res.Exps) {
		t.Errorf("experiments lost: %d vs %d", len(got.Exps), len(res.Exps))
	}
}

const (
	hdrA = `{"type":"campaign","app":"VA","gpu":"RTX2060","kernel":"va_add","structure":"regfile","bits":1,"runs":4,"seed":1}`
	hdrB = `{"type":"campaign","app":"BP","gpu":"RTX2060","kernel":"bp_adjust","structure":"l2","bits":1,"runs":2,"seed":2}`
)

func expLine(id int, effect string) string {
	return fmt.Sprintf(`{"type":"exp","id":%d,"cycle":10,"bits":[3],"effect":%q,"cycles":100,"injected":true}`, id, effect)
}

func join(lines ...string) string { return strings.Join(lines, "\n") }

func TestParseLogErrors(t *testing.T) {
	cases := []string{
		"not json",
		expLine(0, "Masked"),                   // exp before header
		join(hdrA, `{"type":"what"}`),          // unknown type
		join(hdrA, expLine(0, "Nope")),         // bad outcome
		join(hdrA, "{torn", expLine(1, "SDC")), // torn record mid-file: corruption
	}
	for i, src := range cases {
		if _, err := ParseLog(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Empty log is fine.
	out, err := ParseLog(strings.NewReader(""))
	if err != nil || len(out) != 0 {
		t.Errorf("empty log: %v, %v", out, err)
	}
	// Errors name the offending line.
	_, err = ParseLog(strings.NewReader(join(hdrA, expLine(0, "Masked"), "{torn")))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name line 3: %v", err)
	}
}

// TestParseLogTruncatedTail: the lenient parser forgives exactly one torn
// record at the end of the stream — what a crash between fsync batches
// leaves behind — and nothing else. These semantics must match what
// Store.Resume recovers (one scanner serves both), which
// TestLogRecoveryEveryOffset checks on disk.
func TestParseLogTruncatedTail(t *testing.T) {
	src := join(hdrA, expLine(0, "Masked"), expLine(1, "SDC"), `{"type":"exp","id":2,"cy`)
	// Strict parse dies naming the torn line.
	if _, err := ParseLog(strings.NewReader(src)); err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("strict parse of torn tail: %v", err)
	}
	// Lenient parse keeps the intact prefix and reports the cut.
	res, truncated, err := ParseLogLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("torn tail not reported")
	}
	if len(res) != 1 || len(res[0].Exps) != 2 || res[0].Counts.Masked != 1 || res[0].Counts.SDC != 1 {
		t.Errorf("lenient parse kept %+v", res)
	}

	// A torn line followed by more data is corruption, not truncation.
	if _, _, err := ParseLogLenient(strings.NewReader(join(hdrA, "{torn", expLine(0, "Masked")))); err == nil {
		t.Error("mid-file tear accepted leniently")
	}
	// A well-formed final line with invalid content is corruption too.
	if _, _, err := ParseLogLenient(strings.NewReader(join(hdrA, expLine(0, "Nope")))); err == nil {
		t.Error("semantic corruption on final line accepted leniently")
	}
	// An intact log passes through unflagged.
	res, truncated, err = ParseLogLenient(strings.NewReader(join(hdrA, expLine(0, "Crash"))))
	if err != nil || truncated || len(res) != 1 || res[0].Counts.Crash != 1 {
		t.Errorf("intact log: %v %v %v", res, truncated, err)
	}
}

// TestParseLogInterleaved: concatenated campaigns in one stream parse
// into separate results — but a *journal* holds exactly one campaign, so
// Resume refuses such a file.
func TestParseLogInterleaved(t *testing.T) {
	src := join(hdrA, expLine(0, "Masked"), expLine(1, "Crash"),
		hdrB, expLine(0, "SDC"),
		"", // blank lines are tolerated anywhere
		expLine(1, "Timeout"))
	res, err := ParseLog(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d campaigns, want 2", len(res))
	}
	if res[0].App != "VA" || res[0].Counts.Masked != 1 || res[0].Counts.Crash != 1 {
		t.Errorf("first campaign: %+v", res[0].Counts)
	}
	if res[1].App != "BP" || res[1].Counts.SDC != 1 || res[1].Counts.Timeout != 1 {
		t.Errorf("second campaign: %+v", res[1].Counts)
	}
}

// TestResumeRejectsMultiCampaignJournal: journal recovery matches the
// parser's interleaving support only up to the one-campaign invariant.
func TestResumeRejectsMultiCampaignJournal(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("multi", vaSpecCodec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.journal.append(false, headerRecord(Header{App: "BP", GPU: "RTX2060", Kernel: "bp_adjust", Structure: "l2", Runs: 2, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Resume("multi"); err == nil || !strings.Contains(err.Error(), "2 campaigns") {
		t.Errorf("multi-campaign journal accepted: %v", err)
	}
}

// TestResumeEmptyAndHeaderlessJournal: an empty journal (crash before the
// first batch) resumes with zero completed experiments; the header is
// rewritten on resume.
func TestResumeEmptyAndHeaderlessJournal(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("empty", vaSpecCodec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Wipe the journal to zero bytes — crash before any fsync.
	if err := writeFileSync(st.campaignDir("empty")+"/"+journalFile, nil); err != nil {
		t.Fatal(err)
	}
	r, err := st.Resume("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CompletedIDs()) != 0 || r.Truncated {
		t.Errorf("empty journal: %+v", r)
	}
	if err := r.Append(core.Experiment{ID: 0, Effect: "Masked"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The rewritten header + record parse back.
	f, err := st.OpenLog("empty")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := ParseLog(f)
	if err != nil || len(res) != 1 || res[0].Counts.Masked != 1 {
		t.Errorf("resumed headerless journal: %v %v", res, err)
	}
}

func vaSpecCodec() Spec {
	return Spec{App: "VA", GPU: "RTX2060", Kernel: "va_add",
		Structure: "regfile", Runs: 4, Seed: 1}
}
