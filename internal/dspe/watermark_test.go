package dspe

import (
	"testing"
	"time"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
)

// TestWatermarkTicksCloseTrickleBoltWindows pins the tick broadcast:
// a bolt that receives traffic only at the very start of the stream
// must still flush its windows as the GLOBAL stream progresses, so the
// windows it participates in close mid-stream instead of at end of
// stream.
//
// Construction: KG routing with a hand-built stream. One "trickle" key
// appears only in window 0; every other message uses filler keys that
// KG routes to other bolts, so the trickle bolt goes silent after
// window 0. Without ticks, its window-0 partial would flush only when
// its input channel closes — after the whole stream — and window 0
// would be among the LAST windows the reducer completes. With ticks it
// flushes as soon as the stream enters window 2, so window 0's finals
// appear in the reducer's (single-goroutine, hence well-ordered) output
// long before the finals of mid-stream windows.
//
// The ordering is causal, not a timing accident: a mid-stream window w
// cannot close before all its tuples are emitted and processed, which
// happens windows later than the tick that releases the trickle bolt's
// window-0 partial, and the per-tuple service time keeps the stream's
// tail far behind that flush.
func TestWatermarkTicksCloseTrickleBoltWindows(t *testing.T) {
	const (
		workers    = 4
		windowSize = 100
		windows    = 30
	)
	// Probe KG's pure hash to pick a trickle key and fillers on other
	// bolts (KG routing is deterministic and stateless).
	probe := core.NewKeyGrouping(core.Config{Workers: workers, Seed: 5})
	route := func(k string) int {
		dst := make([]int, 1)
		probe.RouteBatchDigests([]string{k}, make([]core.KeyDigest, 1), dst)
		return dst[0]
	}
	var trickleKey string
	var fillers []string
	for i := 0; len(fillers) < 2 || trickleKey == ""; i++ {
		k := "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if trickleKey == "" {
			trickleKey = k
			continue
		}
		if route(k) != route(trickleKey) && len(fillers) < 2 {
			fillers = append(fillers, k)
		}
	}
	keys := make([]string, 0, windows*windowSize)
	for i := 0; i < windows*windowSize; i++ {
		switch {
		case i < windowSize/2 && i%2 == 0:
			keys = append(keys, trickleKey) // window 0 only
		default:
			keys = append(keys, fillers[i%len(fillers)])
		}
	}

	// Record the reducer's emission order (OnFinal runs on the single
	// reducer goroutine, so the sequence is well-defined).
	type seen struct {
		window int64
		key    string
	}
	var order []seen
	cfg := Config{
		Workers:   workers,
		Sources:   2,
		Algorithm: "KG",
		Core:      core.Config{Seed: 5},
		// A small but nonzero service time rate-limits stream progress, so
		// the trickle bolt's tick-driven flush is processed long before the
		// stream's tail windows complete.
		ServiceTime: 10 * time.Microsecond,
		AggWindow:   windowSize,
		OnFinal: func(f aggregation.Final) {
			order = append(order, seen{f.Window, f.Key})
		},
	}
	res, err := Run(stream.FromSlice(keys), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggTotal != int64(len(keys)) {
		t.Fatalf("finals sum to %d, want %d", res.AggTotal, len(keys))
	}

	trickleAt, midAt := -1, -1
	for i, s := range order {
		if s.window == 0 && s.key == trickleKey && trickleAt < 0 {
			trickleAt = i
		}
		if s.window == windows/2 && midAt < 0 {
			midAt = i
		}
	}
	if trickleAt < 0 {
		t.Fatal("trickle key's window-0 final never emitted")
	}
	if midAt < 0 {
		t.Fatalf("window %d final never emitted", windows/2)
	}
	if trickleAt > midAt {
		t.Errorf("window 0 (trickle bolt) closed at output position %d, after mid-stream window %d at position %d: "+
			"watermark ticks are not releasing idle bolts' windows", trickleAt, windows/2, midAt)
	}
}
