// Package cowtest holds the property test of the copy-on-write delta rule
// (mem.Stamp.Behind and the sets it selects), written once and driven through
// both kinds of image that follow the rule: internal/mem runs it over
// mem.Memory, internal/cache over cache.Cache, each through an adapter in its
// own test files that can see the image's unexported state.
package cowtest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Image is what the test needs of an image under the delta protocol. Units
// are whatever the image tracks: pages of device memory, lines of a cache.
type Image interface {
	// Mutate applies n random operations of every kind that can change the
	// image: writes, growth, frees, line fills, evictions, injected flips.
	Mutate(rng *rand.Rand, n int)
	// Dirt returns the units the image tracked as written since its stamp.
	Dirt() []int
	// Capture makes the image the next capture of live's recording and
	// Restore makes it a copy of src, as CaptureFrom / RestoreFrom do; both
	// report the units copied and whether the full leg was taken.
	Capture(live Image, full bool) (copied int, wasFull bool)
	Restore(src Image, full bool) (copied int, wasFull bool)
	// DiffersFromCopyOf reports how the image differs from a CopyFrom of src
	// into storage that never held anything, comparing everything the image
	// holds but its provenance: bytes, allocator, tags, LRU, statistics.
	DiffersFromCopyOf(src Image) error
}

// recording is one live image, the two templates its captures alternate
// into, and the model of what the protocol should know: deltas[n] is the
// live image's dirty set when capture n was taken (the units that can differ
// between captures n-1 and n).
type recording struct {
	live   Image
	tpl    [2]Image
	at     [2]int // capture number each template holds, 0 before its first
	deltas [][]int
}

func newRecording(newImage func() Image, rng *rand.Rand) *recording {
	r := &recording{live: newImage(), tpl: [2]Image{newImage(), newImage()}, deltas: [][]int{nil}}
	r.live.Mutate(rng, 200)
	return r
}

// latest returns the template holding the newest capture.
func (r *recording) latest() Image { return r.tpl[(len(r.deltas)-1)%2] }

// union counts the units in own or in any of the deltas of captures (from, to].
func (r *recording) union(own []int, from, to int) int {
	set := make(map[int]struct{})
	for _, u := range own {
		set[u] = struct{}{}
	}
	for n := from + 1; n <= to; n++ {
		for _, u := range r.deltas[n] {
			set[u] = struct{}{}
		}
	}
	return len(set)
}

// capture lets the live image run on for a while and takes the next capture
// into the template whose turn it is: the one that sat out the previous
// capture, so it is two behind — except for a recording's first two
// captures, which have nothing to catch up from and must be full.
func (r *recording) capture(t *testing.T, rng *rand.Rand) {
	t.Helper()
	r.live.Mutate(rng, rng.Intn(12))
	n := len(r.deltas)
	r.deltas = append(r.deltas, r.live.Dirt())
	tpl, had := r.tpl[n%2], r.at[n%2]
	copied, full := tpl.Capture(r.live, false)
	if err := tpl.DiffersFromCopyOf(r.live); err != nil {
		t.Fatalf("capture %d: %v", n, err)
	}
	if d := r.live.Dirt(); len(d) != 0 {
		t.Fatalf("capture %d left the live image %d dirty units", n, len(d))
	}
	if full != (had == 0) {
		t.Fatalf("capture %d into a template holding capture %d: full=%v", n, had, full)
	}
	if bound := r.union(nil, had, n); !full && copied > bound {
		t.Fatalf("capture %d copied %d units, the two intervals since capture %d dirtied %d", n, copied, had, bound)
	}
	r.at[n%2] = n
}

// vessel is a consumer and what the model knows of it: which recording's
// which capture it was last made a copy of.
type vessel struct {
	img Image
	rec *recording
	at  int
}

// restore syncs v to r's newest capture after dirtying it a little, and
// checks the result and the cost against the rule: full exactly when forced,
// when v never mirrored this recording, or when it is three or more captures
// behind; otherwise no more units than v's own dirt and the deltas between.
func (v *vessel) restore(t *testing.T, rng *rand.Rand, r *recording, forceFull bool) {
	t.Helper()
	v.img.Mutate(rng, rng.Intn(6))
	own, to := v.img.Dirt(), len(r.deltas)-1
	src := r.latest()
	copied, full := v.img.Restore(src, forceFull)
	what := fmt.Sprintf("restore of a vessel at capture %d (same recording: %v) from capture %d", v.at, v.rec == r, to)
	if err := v.img.DiffersFromCopyOf(src); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wantFull := forceFull || v.rec != r || to-v.at > 2
	if full != wantFull {
		t.Fatalf("%s: full=%v, want %v", what, full, wantFull)
	}
	if bound := r.union(own, v.at, to); !full && copied > bound {
		t.Fatalf("%s copied %d units, own dirt and the deltas between hold %d", what, copied, bound)
	}
	v.rec, v.at = r, to
	if forceFull {
		v.rec = nil // a forced full restore leaves no provenance
	}
}

// Run is the property test. A table of lags first — a vessel restoring from
// the capture it holds, from one, two, three and four captures later, with
// dirt of its own, alternating between the two templates or sitting out —
// then the same at random over two recordings, with forced full restores and
// vessels that change recording.
func Run(t *testing.T, newImage func() Image) {
	rng := rand.New(rand.NewSource(23))
	a, b := newRecording(newImage, rng), newRecording(newImage, rng)
	a.capture(t, rng)
	b.capture(t, rng)
	for _, row := range []struct {
		name string
		lags []int // captures taken before each successive restore of one vessel
	}{
		{"same capture", []int{0, 0, 0}},
		{"alternating between the two templates", []int{1, 1, 1, 1, 1}},
		{"sat out a cluster", []int{2, 2, 1, 2}},
		{"three behind takes the full leg, then catches up by delta", []int{3, 1, 2}},
		{"four behind", []int{4, 0, 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			v := &vessel{img: newImage()}
			v.restore(t, rng, a, false) // no provenance yet: full
			for _, lag := range row.lags {
				for ; lag > 0; lag-- {
					a.capture(t, rng)
				}
				v.restore(t, rng, a, false)
			}
			v.restore(t, rng, b, false) // another recording: full
			b.capture(t, rng)
			v.restore(t, rng, b, false) // and by delta within it
			v.restore(t, rng, b, true)  // forced
			v.restore(t, rng, b, false) // which left nothing to go by
		})
	}
	t.Run("random", func(t *testing.T) {
		vessels := make([]*vessel, 5)
		for i := range vessels {
			vessels[i] = &vessel{img: newImage()}
		}
		for iter := 0; iter < 400; iter++ {
			r := a
			if rng.Intn(4) == 0 {
				r = b
			}
			for k := rng.Intn(3); k > 0; k-- {
				r.capture(t, rng)
			}
			vessels[rng.Intn(len(vessels))].restore(t, rng, r, rng.Intn(25) == 0)
		}
	})
}

// Race is the arm for the race detector, in the shape of the campaign
// pipeline: the live image runs on and captures into one template while
// vessels, each on a goroutine of its own, restore from the other and write
// to themselves. Nothing a restore reads may be something a capture writes.
func Race(t *testing.T, newImage func() Image) {
	rng := rand.New(rand.NewSource(29))
	r := newRecording(newImage, rng)
	r.capture(t, rng)
	vessels := make([]Image, 3)
	seeds := make([]*rand.Rand, len(vessels))
	for i := range vessels {
		vessels[i], seeds[i] = newImage(), rand.New(rand.NewSource(int64(31+i)))
	}
	for step := 0; step < 40; step++ {
		src := r.latest()
		var wg sync.WaitGroup
		for i, v := range vessels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					v.Mutate(seeds[i], 4)
					v.Restore(src, false)
				}
			}()
		}
		r.capture(t, rng) // into the other template
		wg.Wait()
		for i, v := range vessels {
			if err := v.DiffersFromCopyOf(src); err != nil {
				t.Fatalf("step %d, vessel %d: %v", step, i, err)
			}
		}
	}
}
