package spacesaving

import "slb/internal/hashing"

// Windowed is a two-generation SpaceSaving sketch for drifting streams:
// offers go to the current generation, and once it has absorbed
// `window` items it becomes the previous generation and a fresh one
// starts. Queries combine both generations, so estimates cover the most
// recent window to two windows of the stream.
//
// The plain Summary never forgets: on a long stream, a newly hot key
// must accumulate θ·N occurrences before crossing the head threshold,
// and N grows without bound — so detection latency grows linearly with
// stream age. Windowed keeps the reference mass bounded by 2·window,
// making adaptation latency independent of how long the system has been
// running. This is the standard rotation construction for turning any
// insertion-only sketch into a sliding-window approximation.
type Windowed struct {
	capacity int
	window   uint64
	cur      *Summary
	prev     *Summary
	retired  uint64 // evictions accumulated by rotated-out generations
}

// NewWindowed returns a windowed sketch; each generation monitors at
// most capacity keys and spans `window` stream items.
func NewWindowed(capacity int, window uint64) *Windowed {
	if window == 0 {
		panic("spacesaving: window must be positive")
	}
	return &Windowed{
		capacity: capacity,
		window:   window,
		cur:      New(capacity),
	}
}

// OfferDigest feeds one occurrence of the key identified by digest d,
// rotating generations as needed (key is retained only if it becomes
// monitored).
func (w *Windowed) OfferDigest(d hashing.KeyDigest, key string) {
	w.cur.OfferDigest(d, key)
	if w.cur.N() >= w.window {
		if w.prev != nil {
			w.retired += w.prev.Evictions()
		}
		w.prev = w.cur
		w.cur = New(w.capacity)
	}
}

// Len returns the number of monitored entries across the live
// generations. A key hot in both generations is counted twice — Len is
// an occupancy gauge (table slots in use), not a distinct-key count.
func (w *Windowed) Len() int {
	n := w.cur.Len()
	if w.prev != nil {
		n += w.prev.Len()
	}
	return n
}

// Capacity returns the total monitored-entry capacity across both
// generations.
func (w *Windowed) Capacity() int { return 2 * w.capacity }

// Evictions returns the min-counter replacements over the sketch's
// whole lifetime, including rotated-out generations (head churn; see
// Summary.Evictions).
func (w *Windowed) Evictions() uint64 {
	n := w.retired + w.cur.Evictions()
	if w.prev != nil {
		n += w.prev.Evictions()
	}
	return n
}

// N returns the stream mass covered by the live generations (at most
// 2·window).
func (w *Windowed) N() uint64 {
	n := w.cur.N()
	if w.prev != nil {
		n += w.prev.N()
	}
	return n
}

// CountDigest returns the combined estimate for the key identified by
// digest d over the covered window.
func (w *Windowed) CountDigest(d hashing.KeyDigest) (count, err uint64, ok bool) {
	c1, e1, ok1 := w.cur.CountDigest(d)
	var c2, e2 uint64
	var ok2 bool
	if w.prev != nil {
		c2, e2, ok2 = w.prev.CountDigest(d)
	}
	if !ok1 && !ok2 {
		return 0, 0, false
	}
	return c1 + c2, e1 + e2, true
}

// HeavyHitters returns the keys whose combined estimated frequency over
// the covered window is at least theta, sorted by descending count.
func (w *Windowed) HeavyHitters(theta float64) []Entry {
	n := w.N()
	if n == 0 {
		return nil
	}
	combined := make(map[string]Entry)
	for _, e := range w.cur.Entries() {
		combined[e.Key] = e
	}
	if w.prev != nil {
		for _, e := range w.prev.Entries() {
			if a, ok := combined[e.Key]; ok {
				combined[e.Key] = Entry{Key: e.Key, Count: a.Count + e.Count, Err: a.Err + e.Err}
			} else {
				combined[e.Key] = e
			}
		}
	}
	thr := theta * float64(n)
	out := make([]Entry, 0, len(combined))
	for _, e := range combined {
		if float64(e.Count) >= thr {
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// sortEntries orders entries by descending count, then key.
func sortEntries(entries []Entry) {
	// Insertion sort: heavy-hitter sets are tiny (≤ a few hundred).
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && less(entries[j], entries[j-1]); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}

func less(a, b Entry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}
