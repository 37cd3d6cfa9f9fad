package core

import (
	"math"
	"math/bits"
)

// loadtree.go holds the two argmins of the Greedy-d head path: the
// floor index, behind every argmin over one sender's whole load vector
// (D-Choices' head path once d reaches n — always, for W-Choices — and
// Oracle's), and the level cursor, behind every argmin over one head
// key's candidate list (below).
//
// # The floor index
//
// Loads are this sender's own message counts, and every change to one
// goes through greedy.bump and adds exactly one. So the workers at the
// minimum load — the floor — can only leave it, and the (load, index)
// minimum the scans define (lowest load, lowest worker index on ties)
// is always the lowest set bit of the floor's member bitmap. The index
// keeps one bitmap per level for the floorLevels levels from the floor
// up, as a ring over level mod floorLevels:
//
//   - words[i·floorLevels + level mod floorLevels] holds the workers
//     64i … 64i+63 whose load is that level. Word-major, so the
//     two words a bump touches are neighbours.
//   - bump moves one bit up one level. A worker leaving the window's top
//     level becomes far: it is in no bitmap, and farMin, a lower bound
//     on the least far load, takes its load.
//   - min reads the floor's lowest set bit from a word cursor. The floor
//     level only loses members, so no set bit ever appears below the
//     cursor and the cursor only moves up: O(1) amortized.
//   - When the floor level empties, the last worker to leave it went one
//     level up, so the next level is not empty: the ring advances by
//     exactly one level and its old floor row, now clear, becomes the
//     new top. Far workers whose load is that top level re-enter through
//     one scan of the loads, which runs only when the top reaches farMin
//     and leaves farMin exact.
//
// A scheme builds its index on first use (greedy.index), and D-C
// releases it whenever a solve takes d below n (the candidate lists
// never read it), so only a scheme that is argmin-ing over all n
// workers pays its upkeep.
//
// Invariants: no load is below floor; a worker with load L in
// [floor, floor+floorLevels) has exactly the bit of row L mod
// floorLevels set; a worker with a higher load has no bit set and a
// load of at least farMin; the floor row has no set bit in words below
// cur. bump and min keep them; rebuild re-establishes them from any
// load vector in O(n). Any worker count routes.
// The bitmaps cost n/8 bytes per level, 8n bytes in all.
const floorLevels = 64

// floorIndex is the floor index over one sender's load vector. It
// aliases the greedy load slice — it indexes the loads, never owns
// them — so callers must call bump after every increment of a load,
// and rebuild after any other change.
type floorIndex struct {
	loads  []int64
	floor  int64    // the window's lowest level: no load is below it
	cur    int      // floor row words below cur are empty
	farMin int64    // no worker at or above floor+floorLevels has a lower load
	words  []uint64 // floorLevels words per 64 workers, word-major
}

// build (re)builds the index over the given load vector (not copied),
// keeping its bitmaps when it has held a vector of that length before.
func (x *floorIndex) build(loads []int64) {
	x.loads = loads
	if need := (len(loads) + 63) / 64 * floorLevels; len(x.words) != need {
		x.words = make([]uint64, need)
	}
	x.rebuild()
}

// rebuild recomputes the index from the current loads in O(n).
func (x *floorIndex) rebuild() {
	clear(x.words)
	x.floor = math.MaxInt64
	for _, l := range x.loads {
		x.floor = min(x.floor, l)
	}
	x.cur, x.farMin = 0, math.MaxInt64
	for w, l := range x.loads {
		if l-x.floor < floorLevels {
			x.set(w, l)
		} else {
			x.farMin = min(x.farMin, l)
		}
	}
}

// set puts worker w into the bitmap of level l.
func (x *floorIndex) set(w int, l int64) {
	x.words[(w>>6)*floorLevels+int(l&(floorLevels-1))] |= 1 << (w & 63)
}

// bump moves worker w up one level after loads[w] was incremented to l.
func (x *floorIndex) bump(w int, l int64) {
	up := l - x.floor
	if up > floorLevels {
		return // far already
	}
	row, bit := x.words[(w>>6)*floorLevels:][:floorLevels], uint64(1)<<(w&63)
	row[(l-1)&(floorLevels-1)] &^= bit
	if up == floorLevels {
		x.farMin = min(x.farMin, l)
		return
	}
	row[l&(floorLevels-1)] |= bit
}

// min returns the least-loaded worker, lowest index on ties.
func (x *floorIndex) min() int {
	for {
		row := int(x.floor & (floorLevels - 1))
		for c := x.cur; c<<6 < len(x.loads); c++ {
			if b := x.words[c*floorLevels+row]; b != 0 {
				x.cur = c
				return c<<6 | bits.TrailingZeros64(b)
			}
		}
		x.advance()
	}
}

// advance moves the window up one level once the floor row is empty,
// re-entering the far workers that reach its new top.
func (x *floorIndex) advance() {
	x.floor++
	x.cur = 0
	top := x.floor + floorLevels - 1
	if top < x.farMin {
		return
	}
	x.farMin = math.MaxInt64
	for w, l := range x.loads {
		if l == top {
			x.set(w, l)
		} else if l > top {
			x.farMin = min(x.farMin, l)
		}
	}
}

// ---------------------------------------------------------------------------
// The level cursor (head lists)
//
// D-Choices routes a head message to the first-lowest of its key's
// deduplicated candidates (routeHead). A key's list is a pure function of
// its digest, and the lists for smaller d are prefixes of the one for a
// larger d (see candDSlack), so the argmin can resume where the key's
// last message left it. Each candidate-cache entry carries a cursor
// (lvl, cur, span) with two invariants:
//
//   - every list position before cur holds a load above lvl;
//   - no candidate among the first span positions has a load below lvl.
//
// Loads only rise, and only by bump, so other keys' traffic never breaks
// either. A head message scans on from cur for the first candidate at
// lvl: it is the first-lowest, since nothing earlier is as low and
// nothing is lower. Routing bumps it above lvl, so the next message
// starts one position on. When no candidate is left at lvl, a pass from
// the list's start finds the first-lowest and sets lvl, cur and span
// afresh. Every candidate is then above lvl, so the first one at lvl+1
// is the first-lowest and ends the pass there: on near-level loads the
// cursor sweeps the list about once per level its candidates climb, and
// a pass reads the whole list only when they climbed further. A list no
// longer than span (the solver lowered d) clamps cur to its length; a
// longer one, a freshly derived entry or a re-laid cache starts with a
// whole pass. The decision is the plain scan's, bit for bit.

// levelCursor is one head key's resume point; the zero value has no
// state, so its first message takes a whole pass.
type levelCursor struct {
	lvl  int64
	cur  int32
	span int32
}

// routeHead routes len(dst) consecutive head messages of one key over
// its deduplicated candidate list by the Greedy-d rule — the lowest
// local load, first lowest winning ("ties broken arbitrarily") —
// resuming and advancing the key's cursor c. A duplicate worker can never
// beat its first occurrence, so the deduplicated list decides exactly
// as the d buckets F_1(k)..F_d(k) would.
func (g *greedy) routeHead(c *levelCursor, cand []int32, dst []int) {
	g.nScanMin += int64(len(dst))
	loads := g.loads
	lvl, i := c.lvl, len(cand)
	held := len(cand) <= int(c.span)
	if held {
		i = min(int(c.cur), len(cand))
	}
	for m := range dst {
		for i < len(cand) && loads[cand[i]] != lvl {
			i++
		}
		if i == len(cand) {
			g.nPasses++
			stop := int64(-1)
			if held {
				stop = lvl + 1
			}
			i, lvl = 0, loads[cand[0]]
			for j, w := range cand {
				l := loads[w]
				if l == stop {
					i, lvl = j, l
					break
				}
				if l < lvl {
					i, lvl = j, l
				}
			}
			c.span, held = int32(len(cand)), true
		}
		w := int(cand[i])
		g.bump(w)
		dst[m] = w
		i++
	}
	c.lvl, c.cur = lvl, int32(i)
}
