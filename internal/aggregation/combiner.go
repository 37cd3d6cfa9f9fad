package aggregation

// combiner.go is the pre-merge a combiner in front of the shard hop
// would do: folding the partials several bolts hold for one
// (window, key) into one before they reach the reducer. No engine runs
// one. The benchmark's staged replay (bench/) folds every flushed
// partial through a CombineTable as a SHADOW span and reports what that
// would cost and save (aggregation.combine_ns_per_msg against
// aggregation.combine_out_per_in): 84 ns per message to remove 7% of
// partials on agg-mem, 8 ns to remove 16% on wire-tcp, against a whole
// reduce stage of 64 and 9 ns. The table stays so the question keeps
// being measured.
//
// Pre-merging is exact because the Merger contract is a commutative,
// associative fold: combining partials here and then at the reducer
// yields bit-identical finals to combining them all at the reducer
// (Count/Sum are integer sums, Min/Max comparisons, Distinct a
// register-wise max — all exactly associative). Partials carry message
// counts and the fold adds them, so window-close thresholds are
// unaffected. Replication is not: merging erases worker identity, so a
// combined partial carries Worker = CombinedWorker and sets no worker
// bit in the reducer slot it merges into — a reducer fed only combined
// partials reports no replication.

// CombinedWorker marks a partial produced by pre-merging partials of
// several workers: its worker identity is gone, and the Driver does not
// count it toward state replication.
const CombinedWorker int32 = -1

// CombineTable merges partials by (window, key digest) through a merge
// operator. It knows nothing of completeness — callers fold whatever
// partials they have and flush the merged survivors whenever they
// choose. Not safe for concurrent use.
type CombineTable struct {
	m    Merger
	pool tablePool
	in   int64
	out  int64
}

// NewCombineTable returns an empty combine table folding partial values
// with m (nil means CountMerger).
func NewCombineTable(m Merger) *CombineTable {
	if m == nil {
		m = CountMerger
	}
	return &CombineTable{m: m, pool: newTablePool()}
}

// Fold merges one partial into the table.
func (ct *CombineTable) Fold(p *Partial) {
	t, _ := ct.pool.get(p.Window)
	ct.m.Combine(&t.slots[t.add(p.Digest, p.Key, p.Count)].val, p.Val)
	ct.in++
}

// FlushBefore appends every held (window, key) entry of windows below
// `before` to dst as ONE combined partial each (Worker =
// CombinedWorker), recycles those windows' tables, and returns the
// extended slice. Ascending window order, unspecified key order within
// a window. Flushing a window the table will see more partials for is
// harmless — the stragglers just form a second combined partial, which
// downstream merges like any other.
func (ct *CombineTable) FlushBefore(before int64, dst []Partial) []Partial {
	if len(ct.pool.open) == 0 {
		return dst
	}
	for _, w := range ct.pool.sortedBelow(before) {
		dst = ct.flushWindow(w, dst)
	}
	return dst
}

// FlushAll flushes every held window (end of stream).
func (ct *CombineTable) FlushAll(dst []Partial) []Partial {
	return ct.FlushBefore(1<<62, dst)
}

func (ct *CombineTable) flushWindow(w int64, dst []Partial) []Partial {
	t := ct.pool.open[w]
	for i := range t.slots {
		if t.slots[i].count == 0 {
			continue
		}
		dst = append(dst, Partial{
			Window: w,
			Digest: t.slots[i].dig,
			Key:    t.slots[i].key,
			Count:  t.slots[i].count,
			Val:    t.slots[i].val,
			Worker: CombinedWorker,
		})
	}
	ct.out += int64(t.used)
	ct.pool.recycle(w)
	return dst
}

// In returns the number of partials folded in so far; Out the number of
// combined partials emitted. In − Out (once drained) is the merge
// traffic the table absorbed.
func (ct *CombineTable) In() int64  { return ct.in }
func (ct *CombineTable) Out() int64 { return ct.out }
