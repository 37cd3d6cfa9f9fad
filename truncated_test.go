package slb_test

import (
	"bytes"
	"strings"
	"testing"

	"slb"
	"slb/internal/stream"
)

// TestTruncatedTraceFails: a trace file cut in half decodes as a
// shorter stream (the decoder reads a torn record as end of stream), so
// every engine must report the shortfall as an error — never finals,
// loads and imbalance over the surviving prefix. Both format versions:
// keys only (1) and keys with payload values (2).
func TestTruncatedTraceFails(t *testing.T) {
	const messages = 20_000
	for _, version := range []int{1, 2} {
		var gen slb.Generator = slb.NewZipfStream(1.4, 2000, messages, 3)
		if version == 2 {
			gen = stream.WithValues(gen, func(key string, _ int64) int64 { return int64(len(key)) })
		}
		var buf bytes.Buffer
		if _, err := slb.WriteTrace(&buf, gen); err != nil {
			t.Fatal(err)
		}
		cut := buf.Bytes()[:buf.Len()/2]
		replay := func() slb.Generator {
			g, err := slb.TraceFromBytes(cut)
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != messages {
				t.Fatalf("v%d: the cut trace declares %d messages, want %d", version, g.Len(), messages)
			}
			return g
		}
		runs := map[string]func() error{
			"simulator": func() error {
				_, err := slb.Simulate(replay(), "PKG", slb.Config{Workers: 8, Seed: 3}, slb.SimOptions{Sources: 2})
				return err
			},
			"eventsim": func() error {
				_, err := slb.SimulateCluster(replay(), slb.ClusterConfig{
					Workers: 8, Sources: 2, Algorithm: "PKG", Core: slb.Config{Seed: 3},
					ServiceTime: 0.01, Window: 50, AggWindow: 500,
				})
				return err
			},
			"dspe": func() error {
				_, err := slb.RunTopology(replay(), slb.EngineConfig{
					Workers: 8, Sources: 2, Algorithm: "PKG", Core: slb.Config{Seed: 3},
					Window: 32, AggWindow: 500,
				})
				return err
			},
		}
		for engine, run := range runs {
			err := run()
			if err == nil {
				t.Errorf("v%d %s: a half-cut trace ran without error", version, engine)
				continue
			}
			if want := "of the 20000 messages planned"; !strings.Contains(err.Error(), want) {
				t.Errorf("v%d %s: error %q does not name the planned count (%q)", version, engine, err, want)
			}
		}
	}
}
