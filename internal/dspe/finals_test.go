package dspe

import (
	"sync"
	"testing"

	"slb/internal/aggregation"
)

// TestFinalFanIn pins the finals fan-in's contract: every final arrives
// exactly once, in its shard's order, with the user callback never
// running concurrently; a nil user or a single shard needs no buffering
// at all.
func TestFinalFanIn(t *testing.T) {
	if onFinal, deliver := (&finalFanIn{shards: 4}).shard(); onFinal != nil {
		t.Fatal("nil user: shard must hand the driver a nil callback")
	} else {
		deliver()
	}
	direct := 0
	one := &finalFanIn{user: func(aggregation.Final) { direct++ }, shards: 1}
	if onFinal, _ := one.shard(); onFinal == nil {
		t.Fatal("single shard: no callback")
	} else if onFinal(aggregation.Final{}); direct != 1 {
		t.Fatal("single shard: the final must go straight to the user")
	}

	const shards, slabs, perSlab = 4, 50, 7
	var got [shards][]int64
	inUser := false
	fan := &finalFanIn{shards: shards, user: func(f aggregation.Final) {
		if inUser {
			t.Error("OnFinal entered concurrently")
		}
		inUser = true
		got[f.Window] = append(got[f.Window], f.Count)
		inUser = false
	}}
	var wg sync.WaitGroup
	for r := 0; r < shards; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			onFinal, deliver := fan.shard()
			var scratch [1]aggregation.Final // reused, as the driver reuses its finals slice
			for n := int64(0); n < slabs*perSlab; n++ {
				scratch[0] = aggregation.Final{Window: int64(r), Count: n}
				onFinal(scratch[0])
				if (n+1)%perSlab == 0 {
					deliver()
				}
			}
			deliver()
		}(r)
	}
	wg.Wait()
	for r := range got {
		if len(got[r]) != slabs*perSlab {
			t.Fatalf("shard %d: %d finals delivered, want %d", r, len(got[r]), slabs*perSlab)
		}
		for i, n := range got[r] {
			if n != int64(i) {
				t.Fatalf("shard %d: final %d arrived at position %d", r, n, i)
			}
		}
	}
}
