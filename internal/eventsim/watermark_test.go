package eventsim

import (
	"fmt"
	"math"
	"testing"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
)

// TestWatermarkTicksCloseTrickleWorkerWindows mirrors internal/dspe's
// slow-trickle-bolt test for the discrete-event engine: a worker that
// receives traffic only in window 0 must still flush as the GLOBAL
// stream progresses, so window 0 closes mid-stream instead of at end
// of stream (before the ticks, eventsim's idle workers flushed only at
// end of stream — exact, but pessimistic for window-close latency).
//
// Construction: KG routing with a hand-built stream. One "trickle" key
// appears only in window 0; every other message uses filler keys KG
// routes to other workers, so the trickle worker is idle from window 1
// on. With idle-worker ticks it flushes as soon as the stream enters
// window 1, so window 0's finals appear in the reducer's deterministic
// output order long before the finals of mid-stream windows.
func TestWatermarkTicksCloseTrickleWorkerWindows(t *testing.T) {
	const (
		workers    = 4
		windowSize = 100
		windows    = 30
	)
	probe := core.NewKeyGrouping(core.Config{Workers: workers, Seed: 5})
	var trickleKey string
	var fillers []string
	for i := 0; len(fillers) < 2 || trickleKey == ""; i++ {
		k := fmt.Sprintf("k%c%c", 'a'+i%26, 'a'+(i/26)%26)
		if trickleKey == "" {
			trickleKey = k
			continue
		}
		if probe.Route(k) != probe.Route(trickleKey) && len(fillers) < 2 {
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

	type seen struct {
		window int64
		key    string
	}
	var order []seen
	res, err := Run(stream.FromSlice(keys), Config{
		Workers:     workers,
		Sources:     2,
		Algorithm:   "KG",
		Core:        core.Config{Seed: 5},
		ServiceTime: 1.0,
		AggWindow:   windowSize,
		OnFinal: func(f aggregation.Final) {
			order = append(order, seen{f.Window, f.Key})
		},
	})
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
		t.Errorf("window 0 (trickle worker) closed at output position %d, after mid-stream window %d at position %d: "+
			"idle workers are not flushing on watermark progress", trickleAt, windows/2, midAt)
	}
}

// TestWatermarkTicksNoFragments: in eventsim each worker's arrival
// order equals emission order, so a tick flush is always complete —
// it must never split a (window, key, worker) partial into fragments.
func TestWatermarkTicksNoFragments(t *testing.T) {
	// Heavily skewed traffic: many workers idle most windows. Every
	// (window, key, worker) triple must still produce exactly ONE
	// partial — tick flushes must never fragment a window.
	cfg := aggCfg("W-C")
	res, err := Run(zipfGen(2.0, 500, 20000), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The reducer counts distinct (window, key, worker) triples; the
	// partial MESSAGE count equals it exactly iff no window's partial
	// was ever split across flushes.
	triples := int64(math.Round(res.AggReplication * float64(res.Agg.Finals)))
	if res.Agg.Partials != triples {
		t.Errorf("partials %d != distinct (window,key,worker) triples %d: tick flushing fragments windows",
			res.Agg.Partials, triples)
	}
	if res.Agg.Late != 0 {
		t.Errorf("late corrections %d, want 0", res.Agg.Late)
	}
}
