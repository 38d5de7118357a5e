package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpufi/internal/store"
)

// tableDump is a replayed table in the shape testdata/control_parent_table.json
// was recorded in, by PR 27's rebuildFromWAL.
type tableDump struct {
	Total      int         `json:"total"`
	Journaled  []int       `json:"journaled"`
	Gen        int         `json:"gen"`
	LiveLeases int         `json:"live_leases"`
	Shards     []shardDump `json:"shards"`
}

type shardDump struct {
	ID       string           `json:"id"`
	Indices  []int            `json:"indices"`
	Merged   int              `json:"merged"`
	Epoch    int64            `json:"epoch"`
	Lease    string           `json:"lease"`
	Worker   string           `json:"worker"`
	Leases   map[string]int64 `json:"leases"`
	Done     bool             `json:"done"`
	Reissues int              `json:"reissues"`
	Leased   bool             `json:"leased"` // the holder was restored with a fresh TTL
}

// openControl puts raw where a campaign's control.jsonl lives and opens it
// the way a restarted coordinator does.
func openControl(t testing.TB, raw []byte) ([]store.ControlRecord, error) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Create("parent", vaSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := os.WriteFile(filepath.Join(st.Dir(), "parent", "control.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ctl, _, wal, err := st.OpenControlWAL("parent")
	if err == nil {
		wal.Close()
	}
	return ctl, err
}

// parentControl loads the control.jsonl PR 27's coordinator wrote for an
// adaptive campaign with a heartbeat, two lease expiries and an early stop
// in it — all nine kinds that build knew — and the table its own recovery
// made of it for the journal as it stood mid-campaign.
func parentControl(t testing.TB) ([]byte, tableDump) {
	t.Helper()
	raw, err := os.ReadFile("testdata/control_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile("testdata/control_parent_table.json")
	if err != nil {
		t.Fatal(err)
	}
	var want tableDump
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	return raw, want
}

// TestParentControlReplays is the old-build gate: a campaign started by the
// parent build resumes. Replay skips the six kinds nothing writes any more
// and rebuilds exactly the table the parent's hand-written recovery built;
// a kindless or malformed line is still corruption, not something to skip.
func TestParentControlReplays(t *testing.T) {
	raw, want := parentControl(t)
	ctl, err := openControl(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, r := range ctl {
		kinds[r.Kind] = true
	}
	if len(kinds) != 9 {
		t.Fatalf("fixture carries %d kinds, want the parent's nine: %v", len(kinds), kinds)
	}

	now, ttl := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC), time.Minute
	tab := newTable("parent", want.Total, want.Journaled)
	gen, ok := replay(tab, ctl, now.Add(ttl))
	if !ok {
		t.Fatal("the parent's control WAL does not replay")
	}
	got := tableDump{Total: tab.total, Journaled: want.Journaled, Gen: gen}
	for _, sid := range tab.order {
		ss := tab.shards[sid]
		if ss.state(now) == "leased" {
			got.LiveLeases++
		}
		got.Shards = append(got.Shards, shardDump{
			ID: sid, Indices: ss.indices, Merged: ss.merged, Epoch: ss.epoch, Lease: ss.curLease,
			Worker: ss.worker, Leases: ss.leases, Done: ss.done, Reissues: ss.reissues(),
			Leased: ss.expiry.Equal(now.Add(ttl)),
		})
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("replayed table differs from the parent's rebuild:\n got %s\nwant %s", g, w)
	}

	lines := bytes.SplitAfter(raw, []byte("\n"))
	for name, bad := range map[string]string{
		"kindless":  `{"gen":1,"shard":"parent:1:0"}` + "\n",
		"malformed": `{"kind":"renew","gen":` + "\n",
	} {
		cut := append(append(append([]byte(nil), bytes.Join(lines[:12], nil)...), bad...), bytes.Join(lines[12:], nil)...)
		if _, err := openControl(t, cut); err == nil {
			t.Errorf("a %s line mid-file opened cleanly; it is corruption", name)
		}
	}
}

// sweepControl cuts ctl at every record boundary — every point a crash can
// leave the file at, torn tails aside (internal/store's own sweep) — and
// holds replay to its contract: with a complete generation in the prefix
// that still covers the campaign the table comes back at that generation,
// fenced at or above every grant the prefix holds, the newest grant per
// shard the only token that may write; otherwise the table is empty and the
// answer is a generation no record in the prefix has used.
func sweepControl(t *testing.T, ctl []store.ControlRecord, total int, journaled []int) {
	t.Helper()
	rebuilt := 0
	for cut := 0; cut <= len(ctl); cut++ {
		prefix := ctl[:cut]
		tab := newTable("sweep", total, journaled)
		gen, ok := replay(tab, prefix, time.Unix(1, 0))
		done, seen := 0, 0
		for _, r := range prefix {
			if r.Kind == store.CtlPlanDone {
				done = max(done, r.Gen)
			}
			if r.Kind == store.CtlPlan || r.Kind == store.CtlPlanDone {
				seen = max(seen, r.Gen)
			}
		}
		if !ok {
			if gen != seen+1 || len(tab.shards) != 0 {
				t.Fatalf("cut %d: no rebuild, yet gen %d (highest seen %d) and %d shards", cut, gen, seen, len(tab.shards))
			}
			if done > 0 {
				t.Fatalf("cut %d: generation %d is complete and was not rebuilt", cut, done)
			}
			continue
		}
		rebuilt++
		if gen != done || !tab.covers() {
			t.Fatalf("cut %d: rebuilt generation %d (complete: %d), covers=%v", cut, gen, done, tab.covers())
		}
		newest := map[string]store.ControlRecord{}
		for _, r := range prefix {
			if r.Kind == store.CtlGrant && tab.shards[r.Shard] != nil {
				newest[r.Shard] = r
			}
		}
		for _, r := range prefix {
			ss := tab.shards[r.Shard]
			if r.Kind != store.CtlGrant || ss == nil {
				continue
			}
			if ss.epoch < r.Epoch {
				t.Fatalf("cut %d: shard %s fenced at %d, below its grant at %d", cut, r.Shard, ss.epoch, r.Epoch)
			}
			err := tab.check(r.Shard, r.Lease)
			if r.Lease == newest[r.Shard].Lease {
				if err != nil {
					t.Fatalf("cut %d: the newest grant of %s (epoch %d) is refused: %v", cut, r.Shard, r.Epoch, err)
				}
			} else if !errors.Is(err, ErrLeaseFenced) {
				t.Fatalf("cut %d: epoch %d of %s was superseded by %d, yet check says %v",
					cut, r.Epoch, r.Shard, newest[r.Shard].Epoch, err)
			}
		}
	}
	if rebuilt == 0 {
		t.Fatal("no cut point rebuilt anything")
	}
}

// TestControlCrashPointSweep is "log recovery at every crash point" for
// control.jsonl, on the parent-recorded file (re-issued shards, legacy
// kinds) and on one with an abandoned generation in front of it.
func TestControlCrashPointSweep(t *testing.T) {
	raw, want := parentControl(t)
	ctl, err := openControl(t, raw)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("parent", func(t *testing.T) { sweepControl(t, ctl, want.Total, want.Journaled) })

	// The same history at generation 2, behind a generation 1 whose
	// coordinator died before plan_done.
	regen := append([]store.ControlRecord(nil), ctl[:3]...)
	for _, r := range ctl {
		r.Gen, r.Shard = 2, strings.Replace(r.Shard, ":1:", ":2:", 1)
		regen = append(regen, r)
	}
	t.Run("abandoned-generation", func(t *testing.T) { sweepControl(t, regen, want.Total, want.Journaled) })
}

// TestEveryWrittenControlKindIsReplayed is the drift guard on the WAL's one
// rule — a record kind is written only if replay reads it. Every Ctl*
// constant of internal/store/wal.go must be named inside replay, every
// other mention of one in non-test code counts as a writer, and a
// ControlRecord built with a string literal for its kind is refused
// outright, so a write-only kind cannot come back under either spelling.
func TestEveryWrittenControlKindIsReplayed(t *testing.T) {
	fset := token.NewFileSet()
	declared, read, written := map[string]bool{}, map[string]bool{}, map[string]string{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		isWAL := filepath.ToSlash(rel) == "internal/store/wal.go"
		inReplay := func(pos token.Pos) bool {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "replay" && fn.Recv == nil &&
					filepath.ToSlash(rel) == "internal/shard/recover.go" {
					return fn.Pos() <= pos && pos < fn.End()
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if isWAL {
					for _, name := range n.Names {
						if strings.HasPrefix(name.Name, "Ctl") {
							declared[name.Name] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "store" && strings.HasPrefix(n.Sel.Name, "Ctl") {
					if inReplay(n.Pos()) {
						read[n.Sel.Name] = true
					} else {
						written[n.Sel.Name] = fset.Position(n.Pos()).String()
					}
				}
			case *ast.CompositeLit:
				typ := n.Type
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					typ = sel.Sel
				}
				if id, ok := typ.(*ast.Ident); !ok || id.Name != "ControlRecord" {
					break
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Kind" {
							if _, lit := kv.Value.(*ast.BasicLit); lit {
								t.Errorf("%s: a ControlRecord with a literal kind; name a store.Ctl* constant",
									fset.Position(kv.Pos()))
							}
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 || len(written) == 0 {
		t.Fatalf("the guard is blind: %d kinds declared, %d written", len(declared), len(written))
	}
	for kind := range declared {
		if !read[kind] {
			t.Errorf("store.%s is declared but replay never reads it: delete it", kind)
		}
	}
	for kind, where := range written {
		if !read[kind] {
			t.Errorf("%s writes store.%s, which replay never reads", where, kind)
		}
	}
}

// FuzzControlReplay feeds replay whatever record sequence decodes: it must
// not panic, a table it vouches for must cover the campaign and fence every
// shard at its highest grant with exactly one writer, and a refusal must
// leave nothing behind and name an unused generation.
func FuzzControlReplay(f *testing.F) {
	raw, want := parentControl(f)
	var mask uint64
	for _, i := range want.Journaled {
		if i < 64 {
			mask |= 1 << i
		}
	}
	f.Add(raw, uint8(want.Total), mask)
	f.Add([]byte(`{"kind":"plan","gen":1,"shard":"f:1:0","indices":[0,1,2]}
{"kind":"plan_done","gen":1,"count":1}
{"kind":"grant","shard":"f:1:0","lease":"a","epoch":2}
{"kind":"grant","shard":"f:1:0","lease":"b","epoch":2}
{"kind":"grant","shard":"f:1:0","lease":"c","epoch":1}
`), uint8(3), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, total uint8, mask uint64) {
		var ctl []store.ControlRecord
		for _, line := range bytes.Split(data, []byte("\n")) {
			var r store.ControlRecord
			if json.Unmarshal(line, &r) == nil && r.Kind != "" {
				ctl = append(ctl, r) // anything else the store refuses to open
			}
		}
		var journaled []int
		for i := 0; i < int(total) && i < 64; i++ {
			if mask&(1<<i) != 0 {
				journaled = append(journaled, i)
			}
		}
		tab := newTable("f", int(total), journaled)
		gen, ok := replay(tab, ctl, time.Unix(1, 0))
		for _, r := range ctl {
			if (r.Kind == store.CtlPlan || r.Kind == store.CtlPlanDone) && r.Gen > gen {
				t.Fatalf("replay answered generation %d; the WAL already used %d", gen, r.Gen)
			}
		}
		if !ok {
			if len(tab.shards) != 0 || len(tab.order) != 0 || gen < 1 {
				t.Fatalf("refused, yet gen %d with %d shards left behind", gen, len(tab.shards))
			}
			return
		}
		if !tab.covers() || len(tab.order) != len(tab.shards) {
			t.Fatalf("vouched for a table that covers=%v with %d ids for %d shards", tab.covers(), len(tab.order), len(tab.shards))
		}
		for sid, ss := range tab.shards {
			n := 0
			for i := range ss.indexSet {
				if tab.journaled[i] {
					n++
				}
			}
			if ss.merged != n || ss.size != len(ss.indexSet) || ss.done != (n == ss.size) {
				t.Fatalf("shard %s: merged %d of %d done=%v, journal says %d of %d", sid, ss.merged, ss.size, ss.done, n, len(ss.indexSet))
			}
			passing := 0
			for lease, e := range ss.leases {
				if e > ss.epoch {
					t.Fatalf("shard %s fenced at %d below its grant at %d", sid, ss.epoch, e)
				}
				if tab.check(sid, lease) == nil {
					passing++
				}
			}
			if want := min(len(ss.leases), 1); passing != want {
				t.Fatalf("shard %s: %d of %d tokens may write, want %d", sid, passing, len(ss.leases), want)
			}
		}
	})
}
