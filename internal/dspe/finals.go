package dspe

import (
	"sync"

	"slb/internal/aggregation"
)

// finalFanIn funnels the finals of R reducer-shard goroutines into the
// user's OnFinal, serialized so OnFinal needs no locking of its own.
// Shards hand finals over a slab at a time: each collects the finals of
// one merge call in its own buffer and takes finalMu once to deliver
// them, instead of locking per final. Order within a shard is kept.
type finalFanIn struct {
	finalMu sync.Mutex
	user    func(aggregation.Final)
	shards  int
}

// shard returns one shard goroutine's end of the fan-in: the callback to
// hand MergeShard/FinishShard, and deliver, to call after each of them.
// With nobody listening the callback is nil; with a single shard there
// is nothing to serialize and finals go straight to the user.
func (f *finalFanIn) shard() (onFinal func(aggregation.Final), deliver func()) {
	if f.user == nil || f.shards <= 1 {
		return f.user, func() {}
	}
	// The buffer holds copies: the driver reuses its finals slice across
	// windows.
	var buf []aggregation.Final
	onFinal = func(fin aggregation.Final) { buf = append(buf, fin) }
	deliver = func() {
		if len(buf) == 0 {
			return
		}
		f.finalMu.Lock()
		for i := range buf {
			f.user(buf[i])
		}
		f.finalMu.Unlock()
		buf = buf[:0]
	}
	return onFinal, deliver
}
