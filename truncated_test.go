package slb_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"slb"
	"slb/internal/stream"
	"slb/internal/tracefile"
)

// seekOnce serves the one Seek NewReplay makes to read the header and
// fails every later one, so the replay cannot be rewound for a run.
type seekOnce struct {
	*bytes.Reader
	seeks int
}

func (s *seekOnce) Seek(off int64, whence int) (int64, error) {
	if s.seeks++; s.seeks > 1 {
		return 0, errors.New("seek refused")
	}
	return s.Reader.Seek(off, whence)
}

// TestTruncatedTraceFails: a trace file cut in half decodes as a
// shorter stream (the decoder reads a torn record as end of stream), so
// every engine must report the shortfall as an error — never finals,
// loads and imbalance over the surviving prefix. The same holds for a
// replay whose source refuses to seek back to its start. A trace file
// removed after it was opened, on the other hand, still replays in
// full from the open descriptor, and every engine's run over it equals
// a replay of the same bytes held in memory. Both format versions: keys
// only (1) and keys with payload values (2).
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
		data := buf.Bytes()
		path := filepath.Join(t.TempDir(), "trace.slbt")
		inputs := []struct {
			name  string
			short bool // the run must fail the short-stream check
			open  func() (slb.Generator, error)
		}{
			{"in memory", false, func() (slb.Generator, error) { return slb.TraceFromBytes(data) }},
			{"cut in half", true, func() (slb.Generator, error) { return slb.TraceFromBytes(data[:len(data)/2]) }},
			{"unseekable", true, func() (slb.Generator, error) {
				return tracefile.NewReplay(&seekOnce{Reader: bytes.NewReader(data)})
			}},
			{"file removed after open", false, func() (slb.Generator, error) {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					return nil, err
				}
				g, err := slb.OpenTrace(path)
				if err != nil {
					return nil, err
				}
				t.Cleanup(func() { g.Close() })
				return g, os.Remove(path)
			}},
		}
		// Each run returns its per-worker loads. The dspe run has two
		// spouts racing for slabs, so only its load total is
		// reproducible.
		runs := map[string]func(slb.Generator) ([]int64, error){
			"simulator": func(g slb.Generator) ([]int64, error) {
				r, err := slb.Simulate(g, "PKG", slb.Config{Workers: 8, Seed: 3}, slb.SimOptions{Sources: 2})
				return r.Loads, err
			},
			"eventsim": func(g slb.Generator) ([]int64, error) {
				r, err := slb.SimulateCluster(g, slb.ClusterConfig{
					Workers: 8, Sources: 2, Algorithm: "PKG", Core: slb.Config{Seed: 3},
					ServiceTime: 0.01, Window: 50, AggWindow: 500,
				})
				return r.Loads, err
			},
			"dspe": func(g slb.Generator) ([]int64, error) {
				r, err := slb.RunTopology(g, slb.EngineConfig{
					Workers: 8, Sources: 2, Algorithm: "PKG", Core: slb.Config{Seed: 3},
					Window: 32, AggWindow: 500,
				})
				return []int64{r.Completed}, err
			},
		}
		for engine, run := range runs {
			var full [][]int64 // loads of the runs over an intact stream
			for _, in := range inputs {
				g, err := in.open()
				if err != nil {
					t.Fatal(err)
				}
				if g.Len() != messages {
					t.Fatalf("v%d %s: the trace declares %d messages, want %d", version, in.name, g.Len(), messages)
				}
				loads, err := run(g)
				switch {
				case !in.short && err != nil:
					t.Errorf("v%d %s %s: %v", version, engine, in.name, err)
				case !in.short:
					full = append(full, loads)
				case err == nil:
					t.Errorf("v%d %s %s: a short stream ran without error", version, engine, in.name)
				case !strings.Contains(err.Error(), "of the 20000 messages planned"):
					t.Errorf("v%d %s %s: error %q does not name the planned count", version, engine, in.name, err)
				}
			}
			if len(full) == 2 && !reflect.DeepEqual(full[0], full[1]) {
				t.Errorf("v%d %s: the removed file's run (loads %v) differs from the in-memory replay's (%v)",
					version, engine, full[1], full[0])
			}
		}
	}
}
