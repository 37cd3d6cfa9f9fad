package dspe

import (
	"fmt"
	"runtime"
	"testing"

	"slb/internal/aggregation"
	"slb/internal/core"
	"slb/internal/stream"
	"slb/internal/transport"
	"slb/internal/workload"
)

// collectFinals runs the topology and returns every final keyed by
// (window, key), plus the result. The engine serializes OnFinal, so the
// map needs no lock.
func collectFinals(t *testing.T, cfg Config, gen stream.Generator) (map[string][2]int64, Result) {
	t.Helper()
	finals := make(map[string][2]int64)
	cfg.OnFinal = func(f aggregation.Final) {
		id := fmt.Sprintf("%d|%s", f.Window, f.Key)
		if _, dup := finals[id]; dup {
			t.Errorf("duplicate final for %s", id)
		}
		finals[id] = [2]int64{f.Count, f.Value}
	}
	res, err := Run(gen, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return finals, res
}

// oracle is what a counting run of cfg over gen must produce, computed
// on one goroutine with no engine: the stream drawn in the spout's
// slabs, routed by source 0's partitioner, window id = seq / AggWindow.
// Finals hold for any Sources; loads and replication are what a
// single-source run must equal exactly (with several spouts the
// interleaving of their draws decides who routes what).
type oracle struct {
	finals map[string][2]int64 // "window|key" → {count, count}
	loads  []int64
	repl   float64 // distinct (window, key, worker) ÷ distinct (window, key)
}

func runOracle(t *testing.T, gen stream.Generator, cfg Config) oracle {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(cfg.Algorithm, cfg.Core)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle{finals: map[string][2]int64{}, loads: make([]int64, cfg.Workers)}
	triples := map[string]struct{}{}
	keys, digs, dsts := make([]string, cfg.Batch), make([]core.KeyDigest, cfg.Batch), make([]int, cfg.Batch)
	gen.Reset()
	for seq := int64(0); seq < cfg.Messages; {
		n := stream.NextBatch(gen, keys[:min(int64(cfg.Batch), cfg.Messages-seq)])
		p.RouteBatchDigests(keys[:n], digs, dsts)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%d|%s", (seq+int64(i))/cfg.AggWindow, keys[i])
			c := o.finals[id][0] + 1
			o.finals[id] = [2]int64{c, c}
			o.loads[dsts[i]]++
			triples[fmt.Sprintf("%s|%d", id, dsts[i])] = struct{}{}
		}
		seq += int64(n)
	}
	gen.Reset()
	o.repl = float64(len(triples)) / float64(len(o.finals))
	return o
}

// checkRun runs cfg and compares it with the oracle using ==: finals
// always; per-worker loads and the replication factor at Sources=1,
// the load sum otherwise.
func checkRun(t *testing.T, cfg Config, gen stream.Generator, want oracle) {
	t.Helper()
	finals, res := collectFinals(t, cfg, gen)
	if len(finals) != len(want.finals) {
		t.Fatalf("%d finals, oracle has %d", len(finals), len(want.finals))
	}
	for id, w := range want.finals {
		if got, ok := finals[id]; !ok || got != w {
			t.Fatalf("final %s = %v (present=%v), oracle %v", id, got, ok, w)
		}
	}
	if res.Completed != cfg.Messages || res.AggTotal != cfg.Messages {
		t.Errorf("completed/total %d/%d, want %d", res.Completed, res.AggTotal, cfg.Messages)
	}
	if res.Agg.Partials != res.AggBoltPartials {
		t.Errorf("reducers merged %d partials, bolts flushed %d", res.Agg.Partials, res.AggBoltPartials)
	}
	var sum int64
	for w, l := range res.Loads {
		sum += l
		if cfg.Sources == 1 && l != want.loads[w] {
			t.Errorf("worker %d processed %d, oracle %d", w, l, want.loads[w])
		}
	}
	if sum != cfg.Messages {
		t.Errorf("loads sum to %d, want %d", sum, cfg.Messages)
	}
	if cfg.Sources == 1 && res.AggReplication != want.repl {
		t.Errorf("replication %v, oracle %v", res.AggReplication, want.repl)
	}
}

var backends = []struct {
	name string
	sel  Transport
}{{"memory", TransportMemory}, {"tcp", TransportTCP}}

// withChaos arms cfg with the harshest schedule the links must ride
// out, and returns the check that the run suffered it: every data link
// that made at least SeverEvery buffer writes severed at least once, and
// ≥ 1% of judged writes dropped. SeverEvery=2 severs on every second
// buffer write. In a single-source run every link makes at least two,
// so there every link must be in the ledger and have been severed. With
// several spouts sharing one generator, a spout that drew little or
// none of it leaves links with fewer writes, or none (the ledger lists
// only links that were written).
func withChaos(cfg *Config) (suffered func(t *testing.T)) {
	var faults map[string]transport.ChaosLinkStats
	chaos := transport.ChaosConfig{Seed: 23, DropOneIn: 4, SeverEvery: 2}
	cfg.Chaos = &chaos
	cfg.OnFaultStats = func(st map[string]transport.ChaosLinkStats) { faults = st }
	wantLinks := cfg.Sources*cfg.Workers + cfg.Workers*cfg.AggShards
	singleSource := cfg.Sources == 1
	return func(t *testing.T) {
		t.Helper()
		var writes, dropped int64
		for link, st := range faults {
			writes += st.Writes
			dropped += st.Dropped
			switch {
			case st.Writes < int64(chaos.SeverEvery) && singleSource:
				t.Errorf("link %s made %d writes, fewer than the %d every single-source link makes", link, st.Writes, chaos.SeverEvery)
			case st.Writes >= int64(chaos.SeverEvery) && st.Severed == 0:
				t.Errorf("link %s was never severed (writes=%d)", link, st.Writes)
			}
		}
		if len(faults) > wantLinks || singleSource && len(faults) != wantLinks {
			t.Errorf("fault ledger covers %d links, want %d", len(faults), wantLinks)
		}
		if dropped*100 < writes {
			t.Errorf("dropped %d of %d writes, want >= 1%%", dropped, writes)
		}
	}
}

// parityAlgos × parityShards is the matrix both single-source parity
// tests walk: a key-pinned, a two-choice and both head-aware schemes,
// unsharded and sharded reduce.
var (
	parityAlgos  = []string{"KG", "PKG", "D-C", "W-C"}
	parityShards = []int{1, 3}
)

// TestTransportPlaneParity: on a clean wire, each backend's finals,
// per-worker loads and replication factor equal the single-threaded
// oracle's, unit for unit.
func TestTransportPlaneParity(t *testing.T) {
	for _, algo := range parityAlgos {
		for _, shards := range parityShards {
			t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
				cfg := Config{
					Workers: 8, Sources: 1, Algorithm: algo,
					AggWindow: 500, AggShards: shards, Messages: 20_000,
				}
				gen := workload.NewZipf(1.2, 300, cfg.Messages, 7)
				want := runOracle(t, gen, cfg)
				for _, b := range backends {
					t.Run(b.name, func(t *testing.T) {
						cfg := cfg
						cfg.Transport = b.sel
						checkRun(t, cfg, gen, want)
					})
				}
			})
		}
	}
}

// TestTransportPlaneMultiSource states the multi-source contract on a
// clean wire: with concurrent spouts the finals still equal the truth
// (window membership follows the global emission sequence regardless of
// which spout draws a slab) and the loads sum to the count.
func TestTransportPlaneMultiSource(t *testing.T) {
	cfg := Config{
		Workers: 10, Sources: 3, Algorithm: "W-C",
		AggWindow: 400, AggShards: 2, Messages: 18_000,
	}
	gen := workload.NewZipf(1.4, 200, cfg.Messages, 11)
	want := runOracle(t, gen, cfg)
	for _, b := range backends {
		cfg.Transport = b.sel
		checkRun(t, cfg, gen, want)
	}
}

// TestTransportPlaneNoAgg sanity-checks the plain (no aggregation)
// topology over both transport backends: every message is processed
// exactly once.
func TestTransportPlaneNoAgg(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			res, err := Run(workload.NewZipf(1.1, 500, 15_000, 5), Config{
				Workers:   6,
				Sources:   3,
				Algorithm: "PKG",
				Messages:  15_000,
				Transport: b.sel,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Completed != 15_000 {
				t.Fatalf("Completed = %d, want 15000", res.Completed)
			}
			var sum int64
			for _, l := range res.Loads {
				sum += l
			}
			if sum != 15_000 {
				t.Fatalf("Loads sum = %d, want 15000", sum)
			}
		})
	}
}

// TestTransportPlaneFaultParity is the exactness pin under faults: a
// run whose links suffer deterministic chaos — every data link with two
// writes or more severed at least once, at least 1% of sender-side
// buffer writes dropped (see withChaos) —
// must still equal the oracle. Single-source runs walk the parity
// matrix and compare everything; the multi-source run compares finals
// and the load sum.
func TestTransportPlaneFaultParity(t *testing.T) {
	t.Run("single-source", func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				for _, algo := range parityAlgos {
					for _, shards := range parityShards {
						t.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(t *testing.T) {
							cfg := Config{
								Workers: 6, Sources: 1, Algorithm: algo, Transport: b.sel,
								AggWindow: 400, AggShards: shards, Messages: 12_000,
							}
							gen := workload.NewZipf(1.2, 250, cfg.Messages, 7)
							want := runOracle(t, gen, cfg)
							suffered := withChaos(&cfg)
							checkRun(t, cfg, gen, want)
							suffered(t)
						})
					}
				}
			})
		}
	})
	t.Run("multi-source", func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				cfg := Config{
					Workers: 6, Sources: 3, Algorithm: "W-C", Transport: b.sel,
					AggWindow: 400, AggShards: 2, Messages: 12_000,
				}
				gen := workload.NewZipf(1.2, 250, cfg.Messages, 7)
				want := runOracle(t, gen, cfg)
				suffered := withChaos(&cfg)
				checkRun(t, cfg, gen, want)
				suffered(t)
			})
		}
	})
}

// mallocsForRun measures the cumulative allocation count of one run of
// m messages over the memory backend.
func mallocsForRun(t *testing.T, m int64) uint64 {
	t.Helper()
	gen := workload.NewZipf(1.3, 200, m, 9)
	cfg := Config{
		Workers:   8,
		Sources:   2,
		Algorithm: "W-C",
		AggWindow: 500,
		AggShards: 2,
		Messages:  m,
		Transport: TransportMemory,
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(gen, cfg); err != nil {
		t.Fatalf("Run: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMemoryTransportAllocsSublinear extends the 0 allocs/op discipline
// to the whole tuple path: tuples live in link slots and partial tables
// are recycled, so a longer run must not allocate proportionally more.
// The per-run fixed cost (links, partitioners, reservoirs, goroutines)
// cancels in the difference; the marginal cost per extra message must
// be ~0 (the bound leaves slack for per-window bookkeeping rows, which
// grow with windows, not messages).
func TestMemoryTransportAllocsSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run")
	}
	const m1, m2 = 20_000, 120_000
	a1 := mallocsForRun(t, m1)
	a2 := mallocsForRun(t, m2)
	extra := float64(a2) - float64(a1)
	perMsg := extra / float64(m2-m1)
	t.Logf("mallocs: %d @ %d msgs, %d @ %d msgs → %.4f allocs per extra message", a1, m1, a2, m2, perMsg)
	if perMsg > 0.05 {
		t.Fatalf("memory transport allocates %.4f per extra message, want ≤ 0.05", perMsg)
	}
}
