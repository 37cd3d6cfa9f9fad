package aggregation

import (
	"fmt"
	"math/rand"
	"testing"

	"slb/internal/hashing"
)

// replicaRun is one seeded stream of partial slabs for the differential
// check: W tumbling windows of winSize messages each, every message
// assigned a key and one of that key's workers, grouped into
// (window, key, worker) partials, some split into duplicate fragments,
// delivered in slabs that interleave a sliding set of open windows so
// windows complete out of order.
type replicaRun struct {
	winSize int64
	windows int64
	keys    []string
	digs    []KeyDigest
	emits   [][]KeyDigest // per window: the digest of each emitted message
	slabs   [][]Partial
}

func newReplicaRun(rng *rand.Rand, workers int) *replicaRun {
	r := &replicaRun{winSize: 96, windows: 14}
	for k := 0; k < 24; k++ {
		key := fmt.Sprintf("key-%d", k)
		r.keys = append(r.keys, key)
		r.digs = append(r.digs, hashing.Digest(key))
	}
	type kw struct{ key, worker int }
	queues := make([][]Partial, r.windows)
	r.emits = make([][]KeyDigest, r.windows)
	for w := int64(0); w < r.windows; w++ {
		counts := map[kw]int64{}
		var order []kw
		for i := int64(0); i < r.winSize; i++ {
			// Skewed key choice; each key spreads over a few workers.
			k := int(float64(len(r.keys)) * rng.Float64() * rng.Float64())
			spread := 1 + k%5
			id := kw{k, (k*7 + rng.Intn(spread)*13) % workers}
			if counts[id] == 0 {
				order = append(order, id)
			}
			counts[id]++
			r.emits[w] = append(r.emits[w], r.digs[k])
		}
		for _, id := range order {
			n := counts[id]
			// A worker that re-opens a flushed window emits fragments.
			for n > 1 && rng.Intn(3) == 0 {
				f := 1 + rng.Int63n(n-1)
				queues[w] = append(queues[w], r.partial(w, id.key, id.worker, f))
				n -= f
			}
			queues[w] = append(queues[w], r.partial(w, id.key, id.worker, n))
		}
		rng.Shuffle(len(queues[w]), func(i, j int) { queues[w][i], queues[w][j] = queues[w][j], queues[w][i] })
	}
	// Interleave: runs of random length from a random window among the
	// three oldest unfinished ones, cut into slabs of random size.
	var slab []Partial
	lo := int64(0)
	for lo < r.windows {
		w := lo + rng.Int63n(3)
		if w >= r.windows || len(queues[w]) == 0 {
			for lo < r.windows && len(queues[lo]) == 0 {
				lo++
			}
			continue
		}
		n := 1 + rng.Intn(9)
		if n > len(queues[w]) {
			n = len(queues[w])
		}
		slab = append(slab, queues[w][:n]...)
		queues[w] = queues[w][n:]
		if rng.Intn(4) == 0 {
			r.slabs = append(r.slabs, slab)
			slab = nil
		}
	}
	if len(slab) > 0 {
		r.slabs = append(r.slabs, slab)
	}
	return r
}

func (r *replicaRun) partial(w int64, key, worker int, n int64) Partial {
	return Partial{Window: w, Digest: r.digs[key], Key: r.keys[key], Count: n, Val: Value{uint64(n)}, Worker: int32(worker)}
}

// TestReplicaAccountingMatchesTracker is the differential check of the
// in-slot accounting: the driver, fed seeded slabs (duplicate fragments,
// several workers per key, out-of-order window completion, a late
// partial re-opening a closed window), must report exactly the pairs,
// keys and Replication of a reference tracker — a plain map of worker
// sets per (window, digest) that sees every raw partial and forgets a
// (window, key) when its final is emitted — per shard and summed, as
// floats with ==. Worker counts straddle the word boundaries of the
// slot's set (one word up to 64, then wide words at 65, 129, ...).
func TestReplicaAccountingMatchesTracker(t *testing.T) {
	type id struct {
		window int64
		dig    KeyDigest
	}
	// tracker is the reference for one shard.
	type tracker struct {
		sets        map[id]map[int32]bool
		pairs, keys int64
	}
	for _, workers := range []int{1, 2, 63, 64, 65, 128, 129, 200} {
		for _, shards := range []int{1, 3} {
			// mixed=false: the ids of the raw-partial matrix from when a
			// second feeding mode existed; kept so they stay comparable.
			name := fmt.Sprintf("workers=%d/shards=%d/mixed=false", workers, shards)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(1000*workers + 10*shards)))
				run := newReplicaRun(rng, workers)
				sd := NewShardedDriver(workers, shards, run.winSize, run.winSize*run.windows, nil)
				for w := range run.emits {
					sd.ObserveEmits(int64(w)*run.winSize, run.emits[w])
				}
				refs := make([]tracker, shards)
				for r := range refs {
					refs[r].sets = map[id]map[int32]bool{}
				}
				type slice struct {
					window int64
					shard  int
				}
				closed := map[slice]bool{} // window slices closed and not re-opened
				var reopened, finals int64
				onFinal := func(f Final) {
					finals++
					r := ShardFor(f.Digest, shards)
					closed[slice{f.Window, r}] = true
					delete(refs[r].sets, id{f.Window, f.Digest})
				}
				feed := func(slab []Partial) {
					for i := range slab {
						p := &slab[i]
						ref := &refs[ShardFor(p.Digest, shards)]
						set := ref.sets[id{p.Window, p.Digest}]
						if set == nil {
							set = map[int32]bool{}
							ref.sets[id{p.Window, p.Digest}] = set
							ref.keys++
						}
						if !set[p.Worker] {
							set[p.Worker] = true
							ref.pairs++
						}
					}
					sd.Merge(slab, onFinal)
				}
				for _, slab := range run.slabs {
					feed(slab)
					// Once a key's slice of a window has closed, re-open it
					// with a stray partial: a fresh (window, key) as far as
					// the accounting goes, closed again at Finish.
					if k := int(reopened); k < 2 {
						r := ShardFor(run.digs[k], shards)
						for w := int64(0); w < run.windows; w++ {
							if closed[slice{w, r}] {
								feed([]Partial{run.partial(w, k, k%workers, 1)})
								reopened++
								closed[slice{w, r}] = false
								break
							}
						}
					}
				}
				sd.Finish(onFinal)

				if reopened == 0 {
					t.Fatal("the run re-opened no closed window")
				}
				if st := sd.Stats(); st.Late != reopened || st.Finals != finals {
					t.Fatalf("late %d (want %d), finals %d (want %d)", st.Late, reopened, st.Finals, finals)
				}
				var pairs, keys, refPairs, refKeys int64
				for r, s := range sd.shards {
					ref := refs[r]
					p, k := s.pairs, s.keys
					if p != ref.pairs || k != ref.keys {
						t.Errorf("shard %d: pairs/keys %d/%d, reference %d/%d", r, p, k, ref.pairs, ref.keys)
					}
					if got, want := perKey(p, k), float64(ref.pairs)/float64(ref.keys); got != want {
						t.Errorf("shard %d: replication %v, reference %v", r, got, want)
					}
					_, live, repl := sd.Live(r)
					if want := perKey(p, k); repl != want {
						t.Errorf("shard %d: Live replication %v after the last merge, exact %v", r, repl, want)
					}
					if live != 0 || len(ref.sets) != 0 {
						t.Errorf("shard %d: %d live entries after Finish (reference %d)", r, live, len(ref.sets))
					}
					// Wide words exist only past 64 workers, one per further 64.
					for _, tb := range s.pool.free {
						if want := (workers - 1) / 64 * len(tb.slots); len(tb.wide) != want {
							t.Errorf("shard %d: %d wide words for %d slots, want %d", r, len(tb.wide), len(tb.slots), want)
						}
					}
					pairs, keys = pairs+p, keys+k
					refPairs, refKeys = refPairs+ref.pairs, refKeys+ref.keys
				}
				if keys == 0 || (workers > 1 && pairs <= keys) {
					t.Fatalf("degenerate run: %d pairs over %d keys", pairs, keys)
				}
				if got, want := sd.Replication(), float64(refPairs)/float64(refKeys); got != want {
					t.Errorf("summed Replication %v, reference %v", got, want)
				}
			})
		}
	}
}

// windowCycle drives a steady two-windows-open cycle through a sharded
// reduce stage: each step emits window w, merges its first half (from
// worker 0), then the second half of window w−1 (from the last worker),
// so windows overlap and every slab holds two runs, closing w−1 on
// completeness.
type windowCycle struct {
	sd     *Driver
	digs   []KeyDigest
	keys   []string
	emits  []KeyDigest
	slab   []Partial
	w      int64
	last   int32 // the last worker
	finals int64
}

func newWindowCycle(t *testing.T, workers, shards int) *windowCycle {
	c := &windowCycle{last: int32(workers - 1)}
	seen := make([]bool, shards)
	for k := 0; k < 12; k++ {
		key := fmt.Sprintf("key-%d", k)
		dg := hashing.Digest(key)
		c.keys, c.digs = append(c.keys, key), append(c.digs, dg)
		c.emits = append(c.emits, dg, dg)
		seen[ShardFor(dg, shards)] = true
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("no key on shard %d: every shard must see every window", r)
		}
	}
	c.sd = NewShardedDriver(workers, shards, int64(len(c.emits)), 0, nil)
	return c
}

func (c *windowCycle) half(w int64, worker int32) {
	for k := range c.keys {
		c.slab = append(c.slab, Partial{Window: w, Digest: c.digs[k], Key: c.keys[k], Count: 1, Val: Value{1}, Worker: worker})
	}
}

func (c *windowCycle) step(onFinal func(Final)) {
	c.sd.ObserveEmits(c.w*int64(len(c.emits)), c.emits)
	c.slab = c.slab[:0]
	c.half(c.w, 0)
	if c.w > 0 {
		c.half(c.w-1, c.last)
	}
	c.sd.Merge(c.slab, onFinal)
	c.w++
}

// TestPerWindowStateStaysBounded: the per-window structures that used
// to grow with the stream — the one-shard stage's closed-window record
// and the sharded stage's threshold rows — follow the open windows
// instead.
func TestPerWindowStateStaysBounded(t *testing.T) {
	const windows = 100_000
	for _, shards := range []int{1, 3} {
		c := newWindowCycle(t, 4, shards)
		th := &c.sd.th
		onFinal := func(Final) { c.finals++ }
		check := func() {
			if n := len(th.rows); n > 2 {
				t.Fatalf("shards=%d, window %d: %d threshold rows held", shards, c.w, n)
			}
			if n := len(th.closed.rest); n > 2 {
				t.Fatalf("shards=%d, window %d: %d closed ids held outside the run", shards, c.w, n)
			}
			for r, s := range c.sd.shards {
				if n := len(s.pool.open); n > 2 {
					t.Fatalf("shards=%d, window %d, shard %d: %d windows open", shards, c.w, r, n)
				}
			}
		}
		for c.w < windows {
			c.step(onFinal)
			if c.w%1000 == 0 {
				check()
			}
		}
		check()
		for r := range c.sd.shards {
			if !th.late(0, r) || !th.late(windows-2, r) || th.late(windows-1, r) {
				t.Fatalf("shards=%d, shard %d: closed record wrong after %d windows", shards, r, windows)
			}
		}
		// A stray partial for a long-retired window counts as late. Its
		// threshold is not final (no row) or not met (one shard), so it
		// waits for Finish.
		c.sd.Merge([]Partial{{Window: 5, Digest: c.digs[0], Key: c.keys[0], Count: 1, Val: Value{1}}}, onFinal)
		before := c.finals
		c.sd.Finish(onFinal)
		st := c.sd.Stats()
		if st.Late != 1 || c.finals != before+int64(len(c.keys))+1 || st.WindowsClosed != int64(shards*windows)+1 {
			t.Fatalf("shards=%d: late %d, finals at Finish %d, windows closed %d", shards, st.Late, c.finals-before, st.WindowsClosed)
		}
		// Two workers per key in every window but the last (one), plus the
		// stray's fresh (window, key).
		n := int64(len(c.keys))
		if got, want := c.sd.Replication(), float64(n*(2*windows-1)+1)/float64(n*windows+1); got != want {
			t.Fatalf("shards=%d: Replication %v, want %v", shards, got, want)
		}
	}
}

// TestClosedSetOutOfOrder pins the closed-window record's exactness
// when windows close out of order, start above zero, or close twice.
func TestClosedSetOutOfOrder(t *testing.T) {
	var c closedSet
	ref := map[int64]bool{}
	for _, w := range []int64{7, 9, 8, 12, 3, 10, 11, 8, 14, 13, 2} {
		c.add(w)
		ref[w] = true
		for q := int64(0); q < 20; q++ {
			if c.has(q) != ref[q] {
				t.Fatalf("after closing %d: has(%d) = %v, want %v", w, q, c.has(q), ref[q])
			}
		}
	}
	if c.lo != 7 || c.hi != 15 || len(c.rest) != 2 {
		t.Fatalf("record [%d, %d) + %v, want [7, 15) + {2, 3}", c.lo, c.hi, c.rest)
	}
}

// TestReduceCycleZeroAllocs: once the per-window working set is
// reached, a merge → close → recycle window cycle allocates nothing —
// unsharded (closed-form thresholds) and sharded (counted thresholds,
// rows recycled), with one-word replica sets (4 workers) and wide ones
// (130 workers: the second half's bit lands in a wide word).
func TestReduceCycleZeroAllocs(t *testing.T) {
	for _, workers := range []int{4, 130} {
		for _, shards := range []int{1, 3} {
			c := newWindowCycle(t, workers, shards)
			onFinal := func(Final) { c.finals++ }
			for i := 0; i < 8; i++ {
				c.step(onFinal)
			}
			if avg := testing.AllocsPerRun(200, func() { c.step(onFinal) }); avg != 0 {
				t.Errorf("workers=%d shards=%d: %v allocs per window cycle, want 0", workers, shards, avg)
			}
			if want := int64(len(c.keys)) * (c.w - 1); c.finals != want {
				t.Errorf("workers=%d shards=%d: %d finals, want %d", workers, shards, c.finals, want)
			}
			if got := c.sd.Replication(); got <= 1 {
				t.Errorf("workers=%d shards=%d: Replication %v, want two workers per key", workers, shards, got)
			}
		}
	}
}
