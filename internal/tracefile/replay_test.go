package tracefile

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/dspe"
	"slb/internal/eventsim"
	"slb/internal/stream"
	"slb/internal/workload"
)

// record encodes a value-bearing trace of the workload into memory and
// returns a fresh replay generator per call.
func record(t *testing.T, m int64) func() *Replay {
	t.Helper()
	gen := stream.WithValues(workload.NewZipf(1.4, 200, m, 17), traceVals)
	var buf bytes.Buffer
	if _, err := Write(&buf, gen); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return func() *Replay {
		g, err := NewReplay(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// TestReplayFeedsEventsimMerger pins the sampling contract end to end
// on the deterministic engine: a bare version-2 replay merges the
// RECORDED values, producing exactly the finals a stream.WithValues
// wrapper over the replay computing the same function would — the
// wrapper overrides the recorded values — and not the constant-1
// fallback.
func TestReplayFeedsEventsimMerger(t *testing.T) {
	const m = 10000
	replay := record(t, m)
	run := func(fn func(string, int64) int64) []aggregation.Final {
		var finals []aggregation.Final
		cfg := eventsim.Config{
			Workers: 6, Sources: 3, Algorithm: "W-C",
			Core: core.Config{Seed: 17}, ServiceTime: 1.0,
			AggWindow: 500, AggShards: 2,
			AggMerger: aggregation.SumMerger,
			OnFinal:   func(f aggregation.Final) { finals = append(finals, f) },
		}
		var gen stream.Generator = replay()
		if fn != nil {
			gen = stream.WithValues(gen, fn)
		}
		if _, err := eventsim.Run(gen, cfg); err != nil {
			t.Fatal(err)
		}
		return finals
	}
	recorded := run(nil)
	wrapped := run(traceVals) // the function the trace recorded
	if !reflect.DeepEqual(recorded, wrapped) {
		t.Fatal("recorded-value replay disagrees with the equivalent WithValues wrapper")
	}
	var countSum, valueSum int64
	for _, f := range recorded {
		countSum += f.Count
		valueSum += f.Value
	}
	if countSum != m {
		t.Fatalf("finals count %d, want %d", countSum, m)
	}
	if valueSum == countSum {
		t.Fatal("merged values equal counts: replay fell back to the constant 1")
	}
}

// TestReplayFeedsDspeMerger runs the wall-clock engine over a recorded
// trace and checks the merged sums match a single-pass ground truth
// over the trace's (key, value) pairs.
func TestReplayFeedsDspeMerger(t *testing.T) {
	const (
		m      = 6000
		window = 500
	)
	replay := record(t, m)

	type fk struct {
		w int64
		k string
	}
	truth := map[fk]int64{}
	g := replay()
	keys := make([]string, 256)
	vals := make([]int64, 256)
	var pos int64
	for {
		n := g.NextBatchValues(keys, vals)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			truth[fk{pos / window, keys[i]}] += vals[i]
			pos++
		}
	}

	got := map[fk]int64{}
	var mu sync.Mutex
	res, err := dspe.Run(replay(), dspe.Config{
		Workers: 4, Sources: 2, Algorithm: "W-C",
		Core:      core.Config{Seed: 17},
		AggWindow: window, AggShards: 2,
		AggMerger: aggregation.SumMerger,
		OnFinal: func(f aggregation.Final) {
			mu.Lock()
			got[fk{f.Window, f.Key}] += f.Value
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AggTotal != m {
		t.Fatalf("finals count to %d, want %d", res.AggTotal, m)
	}
	if !reflect.DeepEqual(got, truth) {
		t.Fatal("merged sums diverge from the recorded trace")
	}
}

// TestGeneratorNextBatchMatchesNext pins the Generator contract every
// engine relies on for trace replay: the sequence does not depend on the
// slab sizes a consumer asks for. Version-1 and version-2 replays, and
// the value-bearing generator a version-2 trace records, are drained with
// slabs of 1, 3, 129 and 512 — keys and, where recorded, values — and
// every drain must equal the one-message drain; each drain after the
// first starts from Reset, so Reset rewinds to the same sequence.
func TestGeneratorNextBatchMatchesNext(t *testing.T) {
	encode := func(gen stream.Generator) *Replay {
		var buf bytes.Buffer
		if _, err := Write(&buf, gen); err != nil {
			t.Fatal(err)
		}
		g, err := NewReplay(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gens := map[string]stream.Generator{
		"with-values": stream.WithValues(workload.NewZipf(1.2, 300, 2001, 4), traceVals),
		"replay-v1":   encode(workload.NewDrift(1.4, 300, 3001, 700, 29, 5)),
		"replay-v2":   encode(stream.WithValues(workload.NewZipf(1.4, 300, 3001, 5), traceVals)),
	}
	drainSlabs := func(g stream.Generator, slab int) ([]string, []int64) {
		vg, _ := g.(stream.ValueBatchGenerator)
		ks, vs := make([]string, slab), make([]int64, slab)
		var gotK []string
		var gotV []int64
		for {
			var n int
			if vg != nil {
				n = vg.NextBatchValues(ks, vs)
				gotV = append(gotV, vs[:n]...)
			} else {
				n = g.NextBatch(ks)
			}
			if n == 0 {
				return gotK, gotV
			}
			gotK = append(gotK, ks[:n]...)
		}
	}
	for name, g := range gens {
		wantK, wantV := drainSlabs(g, 1)
		if int64(len(wantK)) != g.Len() {
			t.Fatalf("%s: drained %d messages, Len %d", name, len(wantK), g.Len())
		}
		for _, slab := range []int{3, 129, 512} {
			g.Reset()
			gotK, gotV := drainSlabs(g, slab)
			if !reflect.DeepEqual(gotK, wantK) || !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("%s: slabs of %d drain a different sequence than slabs of 1", name, slab)
			}
		}
	}
}
