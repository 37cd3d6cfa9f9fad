package aggregation

import (
	"sync"
	"sync/atomic"

	"slb/internal/hashing"
)

// ReducerStats is the measured cost of the aggregation phase — the
// quantities the paper's overhead analysis talks about.
type ReducerStats struct {
	// Partials is the number of partial MESSAGES merged: the aggregation
	// traffic. At least one per (window, key, worker) pair that held
	// state, plus any flush fragments (a worker re-opening an already
	// flushed window emits a second partial for it). For the exact
	// state-replica count — distinct workers per (window, key), fragments
	// not recounted — use Driver.Replication.
	Partials int64
	// Merges counts partials that hit an existing entry (Partials −
	// first-arrivals): the extra merge work replication causes.
	Merges int64
	// Finals is the number of merged results emitted.
	Finals int64
	// WindowsClosed is the number of window slices closed, summed over
	// shards: a sharded reduce stage closes each window once per shard
	// that merged any of it, so this counts distinct windows only at
	// AggShards = 1.
	WindowsClosed int64
	// Late counts partials that arrived for an already-closed window:
	// they reopen it and its results are re-emitted as corrections.
	// Under the completeness-based Driver this is structurally zero
	// mid-stream — a closed window has provably received every partial —
	// so a nonzero value indicates double counting.
	Late int64
	// PeakEntries is the largest number of live (window, key) entries the
	// reducer ever held: its memory high-water mark in entries.
	PeakEntries int
	// PeakWindows is the largest number of simultaneously open windows.
	PeakWindows int
}

// closedSet records exactly which window ids a reducer has finalized: a
// contiguous run [lo, hi) of closed ids plus the set of closed ids
// outside it. Windows close in (nearly) id order, so the run absorbs
// them and the set holds only out-of-order stragglers — O(open windows)
// rather than one entry per window ever closed. It is the closed record
// of the one-shard stage only, whose single shard sees every window; a
// shard that never sees an id would pin hi (see thresholds).
type closedSet struct {
	lo, hi int64 // every id in [lo, hi) is closed; empty while lo == hi
	rest   map[int64]struct{}
}

func (c *closedSet) has(w int64) bool {
	if w >= c.lo && w < c.hi {
		return true
	}
	if len(c.rest) == 0 {
		return false
	}
	_, ok := c.rest[w]
	return ok
}

func (c *closedSet) add(w int64) {
	switch {
	case c.has(w): // a late partial re-opened it; closed again
		return
	case c.lo == c.hi:
		c.lo, c.hi = w, w+1
	case w == c.hi:
		c.hi++
	default:
		if c.rest == nil {
			c.rest = make(map[int64]struct{})
		}
		c.rest[w] = struct{}{}
		return
	}
	for len(c.rest) > 0 {
		if _, ok := c.rest[c.hi]; !ok {
			break
		}
		delete(c.rest, c.hi)
		c.hi++
	}
}

// ShardFor maps a key digest to one of `shards` reducer shards with the
// same Lemire multiply-shift reduction the routing layer uses
// (hashing.Bounded over the avalanched digest). It is a pure function
// of the carried digest — no key bytes are touched — so every worker
// and every engine sends a key's partials to the same shard, and the
// per-key merge stays strictly within one shard.
//
// The reduction consumes the HIGH bits of Mix64(dg) while the partial
// tables index by its low bits, so shard choice and table placement are
// effectively independent.
func ShardFor(dg KeyDigest, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(hashing.Bounded(hashing.Mix64(dg), uint64(shards)))
}

// thresholds is the reduce stage's window clock: the completeness
// threshold each shard closes its slice of a window against, the record
// of which slices closed, and the window announcement.
//
// At one shard the slice is the whole window, so the threshold is
// closed form — windowSize, except the stream's final window, which
// holds the remainder — and always final, and the closed record is a
// closedSet. With R > 1 shards keys partition by digest, so a shard's
// share of a window is data-dependent and is counted at emission: one
// row per window of R emitted counts, the window total and R closed
// flags. Counting happens strictly before a message can be processed,
// flushed or merged, and a threshold is FINAL only once the whole
// window's emission is counted, so a shard never closes against a
// still-growing count. A row goes back to a free list once every shard
// holding a share of the window has closed it. Every partial is
// observed before it is sent, so a window without a row has retired: a
// partial for it is late, and a shard with no share of a window holds
// nothing for it. The rows follow the windows in flight, not the stream.
//
// observe runs concurrently with everything (the rows are behind mu).
// At one shard, late and retire touch only the closedSet, from the one
// shard's goroutine.
type thresholds struct {
	winSize, messages int64
	shards            int
	announced         atomic.Int64 // highest window id announced

	closed closedSet // one shard only

	mu      sync.Mutex
	rows    map[int64][]int64 // R > 1 only
	free    [][]int64         // zeroed rows of retired windows
	lastW   int64
	lastRow []int64
}

// size returns window w's message count.
func (th *thresholds) size(w int64) int64 {
	if th.messages > 0 {
		if last := (th.messages - 1) / th.winSize; w == last {
			return th.messages - last*th.winSize
		}
	}
	return th.winSize
}

// row returns window w's row, taking one from the free list (or
// allocating) on first touch. Caller holds mu. Windows are emitted
// (nearly) in order, so the last row is cached.
func (th *thresholds) row(w int64) []int64 {
	if w == th.lastW {
		return th.lastRow
	}
	r := th.rows[w]
	if r == nil {
		if k := len(th.free); k > 0 {
			r = th.free[k-1]
			th.free = th.free[:k-1]
		} else {
			r = make([]int64, 2*th.shards+1)
		}
		th.rows[w] = r
	}
	th.lastW, th.lastRow = w, r
	return r
}

// observe counts the slab whose digests digs are emission sequences
// base, base+1, … and announces the window of its last message if no
// earlier call entered that window or a later one.
func (th *thresholds) observe(base int64, digs []KeyDigest) (window int64, ok bool) {
	if len(digs) == 0 {
		return 0, false
	}
	if th.rows != nil {
		th.mu.Lock()
		for i, dg := range digs {
			r := th.row((base + int64(i)) / th.winSize)
			r[ShardFor(dg, th.shards)]++
			r[th.shards]++
		}
		th.mu.Unlock()
	}
	window = (base + int64(len(digs)) - 1) / th.winSize
	for {
		seen := th.announced.Load()
		if window <= seen {
			return window, false
		}
		if th.announced.CompareAndSwap(seen, window) {
			return window, true
		}
	}
}

// expected returns shard id's completeness threshold for window w and
// whether it is final.
func (th *thresholds) expected(w int64, id int) (int64, bool) {
	full := th.size(w)
	if th.rows == nil {
		return full, true
	}
	th.mu.Lock()
	defer th.mu.Unlock()
	row := th.rows[w]
	if row == nil {
		return 0, false
	}
	return row[id], row[th.shards] >= full
}

// late reports whether shard id already closed its slice of window w.
func (th *thresholds) late(w int64, id int) bool {
	if th.rows == nil {
		return th.closed.has(w)
	}
	th.mu.Lock()
	defer th.mu.Unlock()
	row := th.rows[w]
	return row == nil || row[th.shards+1+id] != 0
}

// retire records that shard id closed its slice of window w, and drops
// the window's row once every shard with a share of it has. A shard
// that was sent nothing never opens the window, so it is not waited
// for. Idempotent: closing a slice again after a late partial re-opened
// it changes nothing.
func (th *thresholds) retire(w int64, id int) {
	if th.rows == nil {
		th.closed.add(w)
		return
	}
	th.mu.Lock()
	defer th.mu.Unlock()
	row := th.rows[w]
	if row == nil {
		return
	}
	closed := row[th.shards+1:]
	closed[id] = 1
	for r, n := range row[:th.shards] {
		if n > 0 && closed[r] == 0 {
			return
		}
	}
	delete(th.rows, w)
	if w == th.lastW {
		th.lastW, th.lastRow = -1<<62, nil
	}
	clear(row)
	th.free = append(th.free, row)
}

// shard is one reducer shard: it merges the partials of the keys
// ShardFor maps to it, accounts their exact state replication, closes
// its slice of each window on completeness and totals its finals. Not
// safe for concurrent use; each shard has one owner goroutine.
//
// Replica accounting rides on the merge: the slot a partial lands in
// carries the bitset of workers seen for that (window, key) — one word
// in the slot itself up to 64 workers, ⌈n/64⌉ words past that (see
// table) — so a new bit is one more (window, key, worker) state
// replica and a set's first bit one more replicated (window, key).
// Counts are cumulative; the bitset goes with the window's table when
// the window closes, so a late partial that re-opens a closed window
// counts as a fresh key.
type shard struct {
	id    int
	th    *thresholds
	m     Merger
	pool  tablePool
	live  int // live entries across open windows
	stats ReducerStats
	total int64 // sum of the counts of the finals emitted

	workers int32   // a partial's worker must be in [0, workers) or CombinedWorker
	pairs   int64   // distinct (window, key, worker) triples counted in slots
	keys    int64   // distinct (window, key) holding at least one counted worker
	runs    []int64 // scratch: the window of each run of the last merge

	// Atomic mirrors of live, len(pool.open), pairs and keys, updated
	// once per merge/close, so a telemetry goroutine can read the shard's
	// occupancy while the owner merges (Driver.Live).
	liveA  atomic.Int64
	openA  atomic.Int64
	pairsA atomic.Int64
	keysA  atomic.Int64
}

// merge folds a slab of partials into the shard's open windows and
// closes every window slice the slab completed. The window's table and
// closed state are resolved once per RUN of same-window partials (a
// flushed slab is a few long runs), not once per partial.
func (s *shard) merge(ps []Partial, onFinal func(Final)) {
	if len(ps) == 0 {
		return
	}
	s.runs = s.runs[:0]
	for i := 0; i < len(ps); {
		w := ps[i].Window
		j := i + 1
		for j < len(ps) && ps[j].Window == w {
			j++
		}
		s.mergeRun(w, ps[i:j])
		s.runs = append(s.runs, w)
		i = j
	}
	// live only grows while merging, so its value here is the slab's peak.
	if s.live > s.stats.PeakEntries {
		s.stats.PeakEntries = s.live
	}
	s.liveA.Store(int64(s.live))
	s.openA.Store(int64(len(s.pool.open)))
	s.pairsA.Store(s.pairs)
	s.keysA.Store(s.keys)
	for _, w := range s.runs {
		// A window not open was closed by an earlier run of this slab.
		if t := s.pool.open[w]; t != nil {
			if exp, final := s.th.expected(w, s.id); final && t.sum >= exp {
				s.close(w, onFinal)
			}
		}
	}
}

// mergeRun folds partials that all belong to window w.
func (s *shard) mergeRun(w int64, run []Partial) {
	if s.th.late(w, s.id) {
		s.stats.Late += int64(len(run))
	}
	t, created := s.pool.get(w)
	if created && len(s.pool.open) > s.stats.PeakWindows {
		s.stats.PeakWindows = len(s.pool.open)
	}
	before := t.used
	for i := range run {
		p := &run[i]
		si := t.add(p.Digest, p.Key, p.Count)
		sl := &t.slots[si]
		s.m.Combine(&sl.val, p.Val)
		if p.Worker >= 0 {
			if p.Worker >= s.workers {
				panic("aggregation: partial's worker out of range")
			}
			if t.extra > 0 {
				s.markWide(t, si, p.Worker)
			} else if bit := uint64(1) << uint(p.Worker); sl.seen&bit == 0 {
				if sl.seen == 0 {
					s.keys++
				}
				sl.seen |= bit
				s.pairs++
			}
		}
	}
	added := t.used - before
	s.stats.Partials += int64(len(run))
	s.stats.Merges += int64(len(run) - added)
	s.live += added
}

// markWide is mergeRun's replica update past 64 workers: the worker's
// bit is in word worker/64 of slot i's set — word 0 is the slot's seen,
// the rest its wide words.
func (s *shard) markWide(t *table, i int, worker int32) {
	sl, rest := &t.slots[i], t.wide[i*t.extra:(i+1)*t.extra]
	word := &sl.seen
	if q := worker / 64; q > 0 {
		word = &rest[q-1]
	}
	bit := uint64(1) << uint(worker%64)
	if *word&bit != 0 {
		return
	}
	empty := sl.seen == 0
	for _, x := range rest {
		empty = empty && x == 0
	}
	if empty {
		s.keys++
	}
	*word |= bit
	s.pairs++
}

// close finalizes open window w, handing each merged result to onFinal
// (optional; unspecified key order).
func (s *shard) close(w int64, onFinal func(Final)) {
	t := s.pool.open[w]
	for i := range t.slots {
		sl := &t.slots[i]
		if sl.count == 0 {
			continue
		}
		s.total += sl.count
		if onFinal != nil {
			onFinal(Final{Window: w, Digest: sl.dig, Key: sl.key, Count: sl.count, Value: s.m.Result(sl.val)})
		}
	}
	s.stats.Finals += int64(t.used)
	s.stats.WindowsClosed++
	s.live -= t.used
	s.pool.recycle(w)
	s.liveA.Store(int64(s.live))
	s.openA.Store(int64(len(s.pool.open)))
	s.th.retire(w, s.id)
}

// finish closes every open window, in ascending window order.
func (s *shard) finish(onFinal func(Final)) {
	for _, w := range s.pool.sortedBelow(1 << 62) {
		s.close(w, onFinal)
	}
}

// Driver is the reduce stage of an engine run: R ≥ 1 shards, each
// owning the keys whose digests ShardFor maps to it. It merges partial
// slabs, accounts exact state replication, closes windows and totals
// the finals, and it owns the window clock both engines (internal/dspe,
// internal/eventsim) run on, so that policy lives in one place.
//
// Replication is counted where the merge already is: a partial's
// worker bit lands in the shard's own (window, key) slot (see shard),
// at no lookup of its own and at any worker count — the slot's set is
// as wide as the workers need, fixed at construction.
//
// Window close is COMPLETENESS-based, not watermark-based: every
// tumbling window has an exactly known message count (windowSize,
// except the stream's final window), each message contributes exactly
// once to exactly one flushed partial, and partials carry counts — so a
// shard whose merged total for a window reaches its share of the window
// has provably received every partial it ever will, and closes its
// slice immediately. No reordering assumption is involved (watermark
// slack heuristics break down when a message is stuck behind a hot
// worker's queue while the rest of the cluster races ahead), duplicates
// are structurally impossible mid-stream, and each (window, key) yields
// exactly one Final. The shares are counted at emission by
// ObserveEmits; at one shard the share is the whole window and needs
// no counting.
//
// Concurrency contract: MergeShard/FinishShard on DISTINCT shards may
// run concurrently (the goroutine engine gives each shard its own
// goroutine); ObserveEmits and Live may run concurrently with
// everything. Merge/Finish and the other accessors (Stats, Replication,
// Total) are for single-threaded engines or post-join reporting.
type Driver struct {
	th     thresholds
	shards []*shard
	bufs   [][]Partial // per-shard scratch for Merge
}

// NewDriver returns a one-shard counting driver for an engine run of
// `messages` total messages in tumbling windows of windowSize (the
// final window holds the remainder).
func NewDriver(workers int, windowSize, messages int64) *Driver {
	return NewShardedDriver(workers, 1, windowSize, messages, nil)
}

// NewShardedDriver returns an R-way reduce stage for an engine run of
// `messages` total messages in tumbling windows of windowSize, merging
// values with m (nil means CountMerger) — the operator the accumulators
// that feed it were built with. shards ≤ 1 means one shard. The shards'
// replica sets are sized for workers: one word per slot up to 64,
// ⌈workers/64⌉ past that.
func NewShardedDriver(workers, shards int, windowSize, messages int64, m Merger) *Driver {
	if windowSize <= 0 {
		panic("aggregation: Driver windowSize must be positive")
	}
	if workers <= 0 {
		panic("aggregation: Driver workers must be positive")
	}
	if m == nil {
		m = CountMerger
	}
	shards = max(shards, 1)
	d := &Driver{shards: make([]*shard, shards), bufs: make([][]Partial, shards)}
	d.th.winSize, d.th.messages, d.th.shards = windowSize, messages, shards
	if shards > 1 {
		d.th.rows, d.th.lastW = make(map[int64][]int64), -1<<62
	}
	for r := range d.shards {
		d.shards[r] = &shard{id: r, th: &d.th, m: m, pool: newTablePool(), workers: int32(workers)}
		d.shards[r].pool.extra = (workers - 1) / 64
	}
	return d
}

// ObserveEmits records a routed slab, whose digests digs are the
// messages of emission sequences base, base+1, …, toward the per-shard
// completeness thresholds. Engines MUST call it for every message
// before the message becomes processable.
//
// It is also the window announcement: it returns the window of the
// slab's last message, with ok when no earlier call entered that window
// or a later one. Each window is announced at most once, starting after
// window 0; the engines then tell the workers the stream has entered
// it, so workers the partitioner starves still flush on time.
func (d *Driver) ObserveEmits(base int64, digs []KeyDigest) (window int64, ok bool) {
	return d.th.observe(base, digs)
}

// Merge splits a flushed slab by digest shard and folds each piece into
// its shard (ascending shard order, slab order within a shard), closing
// any window slices the slab completed; onFinal (optional) receives each
// result. For single-threaded engines; concurrent engines pre-split and
// call MergeShard from each shard's goroutine.
func (d *Driver) Merge(ps []Partial, onFinal func(Final)) {
	if len(d.shards) == 1 {
		d.shards[0].merge(ps, onFinal)
		return
	}
	if len(ps) == 0 {
		return
	}
	for r := range d.bufs {
		d.bufs[r] = d.bufs[r][:0]
	}
	for i := range ps {
		r := ShardFor(ps[i].Digest, len(d.shards))
		d.bufs[r] = append(d.bufs[r], ps[i])
	}
	for r, buf := range d.bufs {
		d.shards[r].merge(buf, onFinal)
	}
}

// MergeShard folds a slab already filtered to shard r into that shard.
// Safe to call concurrently across DISTINCT shards.
func (d *Driver) MergeShard(r int, ps []Partial, onFinal func(Final)) {
	d.shards[r].merge(ps, onFinal)
}

// Finish closes every remaining window on every shard (end of stream).
func (d *Driver) Finish(onFinal func(Final)) {
	for _, s := range d.shards {
		s.finish(onFinal)
	}
}

// FinishShard closes shard r's remaining windows (end of stream); the
// per-goroutine form of Finish.
func (d *Driver) FinishShard(r int, onFinal func(Final)) {
	d.shards[r].finish(onFinal)
}

// Live returns shard r's currently open windows, live (window, key)
// entries and replication factor so far, as of its last merge or close.
// Safe to call concurrently with that shard's merges — telemetry gauges
// poll it mid-run.
func (d *Driver) Live(r int) (windows, entries int64, replication float64) {
	s := d.shards[r]
	return s.openA.Load(), s.liveA.Load(), perKey(s.pairsA.Load(), s.keysA.Load())
}

// Stats returns the reduce stage's cost counters summed across shards.
// WindowsClosed is the window slices closed, summed over shards (a
// window merged by k shards counts k times). PeakEntries is the sum of
// per-shard peaks (an upper bound on the stage's simultaneous memory:
// shards peak independently); PeakWindows is the max across shards
// (every shard sees the same windows).
func (d *Driver) Stats() ReducerStats {
	var out ReducerStats
	for _, s := range d.shards {
		st := s.stats
		out.Partials += st.Partials
		out.Merges += st.Merges
		out.Finals += st.Finals
		out.WindowsClosed += st.WindowsClosed
		out.Late += st.Late
		out.PeakEntries += st.PeakEntries
		out.PeakWindows = max(out.PeakWindows, st.PeakWindows)
	}
	return out
}

// Replication returns the exact measured state replication factor:
// distinct (window, key, worker) triples per distinct (window, key).
// Keys partition across shards, so the shard totals add.
func (d *Driver) Replication() float64 {
	var pairs, keys int64
	for _, s := range d.shards {
		pairs, keys = pairs+s.pairs, keys+s.keys
	}
	return perKey(pairs, keys)
}

// perKey is the replication factor of the given counts (0 before any
// key was observed).
func perKey(pairs, keys int64) float64 {
	if keys == 0 {
		return 0
	}
	return float64(pairs) / float64(keys)
}

// Total returns the sum of all final counts emitted so far.
func (d *Driver) Total() int64 {
	var t int64
	for _, s := range d.shards {
		t += s.total
	}
	return t
}
