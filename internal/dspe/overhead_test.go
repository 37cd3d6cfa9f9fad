package dspe

import (
	"fmt"
	"testing"

	"slb/internal/workload"
)

// TestReplicationOverheadOrdering pins the paper's memory-overhead
// result on the Storm run's shape (32 workers, z=1.4, 10k keys,
// 2000-message windows; no service sleep — replication does not depend
// on it): state replication is PKG < D-C < W-C, with W-C at least 1.5×
// D-C — the reason D-C exists next to W-C — and every algorithm's
// finals equal a plain-map count of the stream.
func TestReplicationOverheadOrdering(t *testing.T) {
	const (
		messages = 60_000
		window   = 2_000
	)
	gen := workload.NewZipf(1.4, 10_000, messages, 7)
	truth := make(map[string][2]int64)
	one := make([]string, 1)
	for i := int64(0); gen.NextBatch(one) == 1; i++ {
		key := one[0]
		id := fmt.Sprintf("%d|%s", i/window, key)
		n := truth[id][0] + 1
		truth[id] = [2]int64{n, n}
	}
	repl := make(map[string]float64)
	for _, algo := range []string{"PKG", "D-C", "W-C"} {
		finals, res := collectFinals(t, Config{
			Workers:   32,
			Sources:   1,
			Algorithm: algo,
			AggWindow: window,
			Messages:  messages,
			Transport: TransportMemory,
		}, gen)
		if len(finals) != len(truth) {
			t.Fatalf("%s: %d finals, truth has %d", algo, len(finals), len(truth))
		}
		for id, want := range truth {
			if got := finals[id]; got != want {
				t.Fatalf("%s: final %s = %v, want %v", algo, id, got, want)
			}
		}
		repl[algo] = res.AggReplication
	}
	t.Logf("replication: PKG %.4f, D-C %.4f, W-C %.4f", repl["PKG"], repl["D-C"], repl["W-C"])
	if !(repl["PKG"] < repl["D-C"] && repl["D-C"] < repl["W-C"]) {
		t.Errorf("replication not PKG < D-C < W-C: %v", repl)
	}
	if repl["W-C"] < 1.5*repl["D-C"] {
		t.Errorf("W-C replication %.4f is under 1.5× D-C's %.4f", repl["W-C"], repl["D-C"])
	}
}
