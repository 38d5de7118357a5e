package mem

import "math/bits"

// PageBytes is the dirty-tracking granularity over the device-memory
// image. 4 KiB balances bitmap size (32 KiB of bitmap per GiB of image)
// against copy amplification: a single-word store dirties one page, so a
// fork restore after a near-masked experiment moves kilobytes, not the
// whole image.
const PageBytes = 4096

// pageShift is log2(PageBytes).
const pageShift = 12

// DirtyTracker is a grow-on-demand bitmap over fixed-size pages (or any
// other unit the caller indexes by). The campaign fork engine records
// which pages of a memory image a vessel wrote since its last restore, so
// the next restore copies only those pages back from the shared snapshot.
//
// The zero value is ready to use. A DirtyTracker is not safe for
// concurrent use; each Memory owns its own.
type DirtyTracker struct {
	bits []uint64
}

// NewDirtyTracker returns an empty tracker.
func NewDirtyTracker() *DirtyTracker { return &DirtyTracker{} }

// Mark records page as dirty, growing the bitmap as needed. Negative
// pages are ignored.
func (t *DirtyTracker) Mark(page int) {
	if page < 0 {
		return
	}
	w := page >> 6
	if w >= len(t.bits) {
		t.grow(w + 1)
	}
	t.bits[w] |= 1 << uint(page&63)
}

// MarkRange records every page in [lo, hi) as dirty.
func (t *DirtyTracker) MarkRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return
	}
	w := (hi - 1) >> 6
	if w >= len(t.bits) {
		t.grow(w + 1)
	}
	for p := lo; p < hi; p++ {
		t.bits[p>>6] |= 1 << uint(p&63)
	}
}

func (t *DirtyTracker) grow(words int) {
	if cap(t.bits) >= words {
		t.bits = t.bits[:words]
		return
	}
	grown := make([]uint64, words, words+words/2+1)
	copy(grown, t.bits)
	t.bits = grown
}

// Dirty reports whether page has been marked since the last Clear.
func (t *DirtyTracker) Dirty(page int) bool {
	if page < 0 {
		return false
	}
	w := page >> 6
	return w < len(t.bits) && t.bits[w]&(1<<uint(page&63)) != 0
}

// Clear resets every page to clean, keeping the bitmap's capacity.
func (t *DirtyTracker) Clear() {
	for i := range t.bits {
		t.bits[i] = 0
	}
}

// Count returns the number of dirty pages.
func (t *DirtyTracker) Count() int {
	n := 0
	for _, w := range t.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Merge marks every page dirty that is dirty in o.
func (t *DirtyTracker) Merge(o *DirtyTracker) {
	if o == nil {
		return
	}
	if len(o.bits) > len(t.bits) {
		t.grow(len(o.bits))
	}
	for i, w := range o.bits {
		t.bits[i] |= w
	}
}

// CopyFrom makes t an exact copy of o's dirty set.
func (t *DirtyTracker) CopyFrom(o *DirtyTracker) {
	t.Clear()
	t.Merge(o)
}

// Range calls fn for every dirty page in ascending order, stopping early
// if fn returns false.
func (t *DirtyTracker) Range(fn func(page int) bool) {
	for i, w := range t.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i<<6 + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Stamp names the content an image was last made equal to: capture N of the
// recording Rec. A recording is one image's run of numbered captures
// (StartTracking opens it, every CaptureFrom it is the source of takes the
// next number); an image holding a stamp differs from that capture at most
// in the units it tracked as written since. A nil Rec is no provenance.
type Stamp struct {
	Rec *Recording
	N   uint64
}

// Recording is the identity of a recording and nothing more; it has a size
// so that every recording has an address of its own.
type Recording struct{ _ byte }

// NewRecording returns capture 0 of a recording no other image has seen.
func NewRecording() Stamp { return Stamp{Rec: new(Recording)} }

// Behind is the delta rule, the same for device memory and for caches: an
// image holding s can be brought up to a source holding src by moving its
// own writes plus, at lag 1 or 2, the set the source froze for a consumer
// that many captures behind (its delta[lag-1]). ok is false — the full legs
// — for an image with no provenance, of another recording, ahead of the
// source, or three or more captures behind.
func (s Stamp) Behind(src Stamp) (lag int, ok bool) {
	if s.Rec == nil || s.Rec != src.Rec || s.N > src.N || src.N-s.N > 2 {
		return 0, false
	}
	return int(src.N - s.N), true
}
