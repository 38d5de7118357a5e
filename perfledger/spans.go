package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpufi/internal/obs"
)

// span is one traced interval: a call the harness made into a layer, or a
// span the program itself emitted while serving that call. Spans of one
// pass share its pass number.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Pass   int    `json:"pass"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	// fallback parents a program span whose own parent was never
	// collected (the root of what the program emitted) under the harness
	// call that caused it.
	fallback string
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	spans []span
	next  int
	pass  int
}

func (r *recorder) setPass(p int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pass = p
	r.mu.Unlock()
}

// begin opens a harness span under parent ("" for a root) and returns its
// id and the function that closes it.
func (r *recorder) begin(parent, layer, name string) (id string, end func()) {
	if r == nil {
		return "", func() {}
	}
	r.mu.Lock()
	r.next++
	id = "h" + strconv.Itoa(r.next)
	pass := r.pass
	r.mu.Unlock()
	start := time.Now().UnixNano()
	return id, func() {
		stop := time.Now().UnixNano()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Pass: pass,
			Layer: layer, Name: name, Start: start, End: stop})
		r.mu.Unlock()
	}
}

// programLayer maps a span name the program emits to its internal/ package.
func programLayer(name string) string {
	switch prefix, _, _ := strings.Cut(name, "."); prefix {
	case "engine":
		return "core"
	case "coordinator", "worker":
		return "shard"
	case "wal":
		return "store"
	case "service", "campaign":
		return "service"
	}
	return "other"
}

// add records one span the program emitted, to be parented under the
// harness span caller when its own parent is not among the collected.
func (r *recorder) add(rec obs.SpanRecord, caller string) {
	if r == nil || rec.Kind != "" {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: rec.Span, Parent: rec.Parent, Pass: r.pass,
		Layer: programLayer(rec.Name), Name: rec.Name,
		Start: rec.StartUS * 1000, End: (rec.StartUS + rec.DurUS) * 1000,
		fallback: caller,
	})
	r.mu.Unlock()
}

// sink returns an obs sink collecting under the harness span caller, or
// nil on the untraced run (obs.ContextWithSink ignores a nil sink).
func (r *recorder) sink(caller string) obs.SpanSink {
	if r == nil {
		return nil
	}
	return func(rec obs.SpanRecord) { r.add(rec, caller) }
}

// addJSONL collects the span records of a spans.jsonl stream.
func (r *recorder) addJSONL(rd io.Reader, caller string) error {
	if r == nil {
		return nil
	}
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("span log: %v", err)
		}
		r.add(rec, caller)
	}
	return sc.Err()
}

// finish returns the collected spans with announce records superseded by
// their completed span and dangling parents resolved to the caller.
func (r *recorder) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolveSpans(r.spans)
}

func resolveSpans(in []span) []span {
	best := make(map[string]int, len(in))
	var out []span
	for _, s := range in {
		if i, ok := best[s.ID]; ok {
			// A provisional (zero-duration) announce and its completed
			// record share an id: keep the longer.
			if s.End-s.Start > out[i].End-out[i].Start {
				out[i] = s
			}
			continue
		}
		best[s.ID] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if _, ok := best[out[i].Parent]; !ok || out[i].Parent == "" {
			out[i].Parent = out[i].fallback
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (two engine workers run under one cluster span) and may stick out of the
// parent (clock resolution differs); the covered part is the union of the
// children's intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[string][]int, len(spans))
	for i, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make(map[string]int64, len(spans))
	for _, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		for i, v := range ivs {
			if i == 0 || v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[s.ID] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// hotSpot is one (layer, span name) row of the self-time ranking.
type hotSpot struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"` // of all self time in the trace
}

// rankSpans aggregates self time by (layer, name), largest first, and
// totals it per layer.
func rankSpans(spans []span) (rows []hotSpot, byLayer map[string]float64) {
	self := selfTimes(spans)
	byLayer = map[string]float64{}
	idx := map[string]int{}
	var total float64
	for _, s := range spans {
		ms := float64(self[s.ID]) / 1e6
		total += ms
		byLayer[s.Layer] += ms
		key := s.Layer + "\x00" + s.Name
		i, ok := idx[key]
		if !ok {
			i = len(rows)
			idx[key] = i
			rows = append(rows, hotSpot{Layer: s.Layer, Name: s.Name})
		}
		rows[i].Count++
		rows[i].SelfMS += ms
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = rows[i].SelfMS / total
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, byLayer
}

// printSpanTables writes the per-layer self-time table and the ranked
// top-three hot spots of a rankSpans result.
func printSpanTables(w io.Writer, spans int, rows []hotSpot, byLayer map[string]float64) {
	var total float64
	layers := make([]string, 0, len(byLayer))
	for l, ms := range byLayer {
		layers = append(layers, l)
		total += ms
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	fmt.Fprintf(w, "per-layer self time (%d spans, %.0f ms traced)\n", spans, total)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.1f ms  %5.1f%%\n", l, byLayer[l], 100*byLayer[l]/max(total, 1e-9))
	}
	fmt.Fprintln(w, "top hot spots by self time")
	for i, r := range rows {
		if i == 3 {
			break
		}
		fmt.Fprintf(w, "  %d. %s/%s  %.1f ms over %d spans (%.1f%%)\n",
			i+1, r.Layer, r.Name, r.SelfMS, r.Count, 100*r.Share)
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
