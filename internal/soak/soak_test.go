package soak

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// shortConfig is a soak small enough for unit tests: one cycle, legs
// of 30k messages, sampling fast enough that the dspe legs emit
// in-flight rows on any host.
func shortConfig(emit func(Row)) Config {
	return Config{
		Duration: 0, Interval: 25 * time.Millisecond, MinCycles: 1,
		Messages: 30_000, Keys: 2_000, ServiceTime: 2 * time.Microsecond,
		Workers: 4, Sources: 2, Shards: 3,
		Emit: emit,
	}
}

func TestRunCoversEveryEngine(t *testing.T) {
	var rows []Row
	rep, err := Run(shortConfig(func(r Row) { rows = append(rows, r) }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", rep.Cycles)
	}
	if rep.Rows != len(rows) {
		t.Fatalf("report says %d rows, sink saw %d", rep.Rows, len(rows))
	}

	finals := map[string]Row{}
	for _, r := range rows {
		if len(r.ReduceUtil) != 3 {
			t.Fatalf("%s row has %d shard utils, want 3", r.Engine, len(r.ReduceUtil))
		}
		if r.Final {
			finals[r.Engine] = r
		}
	}
	for _, eng := range Engines {
		f, ok := finals[eng]
		if !ok {
			t.Fatalf("no final row for %s", eng)
		}
		if f.Completed != 30_000 {
			t.Fatalf("%s completed %d, want 30000", eng, f.Completed)
		}
		util := 0.0
		for _, u := range f.ReduceUtil {
			util += u
		}
		if util <= 0 {
			t.Fatalf("%s final row has zero reducer utilization", eng)
		}
		// Every engine run must have registered per-worker queue-depth
		// gauges for the interval rows to sample.
		snap, ok := rep.FinalSnapshots[eng]
		if !ok {
			t.Fatalf("no final snapshot for %s", eng)
		}
		depthSeries := 0
		for i := range snap.Metrics {
			if snap.Metrics[i].Name == "queue_depth" {
				depthSeries++
			}
		}
		if depthSeries < 4 {
			t.Fatalf("%s snapshot has %d queue_depth series, want one per worker (4)", eng, depthSeries)
		}
	}

	if len(rep.Summaries) != len(Engines) {
		t.Fatalf("got %d summaries", len(rep.Summaries))
	}
	for _, s := range rep.Summaries {
		if s.Completed != 30_000 || s.Legs != 1 {
			t.Fatalf("%s summary: %+v", s.Engine, s)
		}
		if s.Throughput <= 0 {
			t.Fatalf("%s throughput not positive", s.Engine)
		}
		if s.Engine != EngineEventsim && s.RouteNsPerMsg <= 0 {
			t.Fatalf("%s route ns/msg not positive", s.Engine)
		}
		if s.ReduceUtilMean <= 0 || s.ReduceUtilMax < s.ReduceUtilMean {
			t.Fatalf("%s reducer utils inconsistent: mean %g max %g", s.Engine, s.ReduceUtilMean, s.ReduceUtilMax)
		}
	}
}

func TestConfigStringCanonical(t *testing.T) {
	got := Config{}.String()
	want := "algo=W-C n=8 s=4 r=4 m=200000 keys=20000 z=1.2 epoch=25000 stride=4096 svc=20µs win=512"
	if got != want {
		t.Fatalf("config string %q, want %q", got, want)
	}
	if s := (Config{Spin: true}).String(); s != want+" spin" {
		t.Fatalf("spin config string %q", s)
	}
	// Faults implies the TCP leg, and both marks land in the identity so
	// chaos baselines never gate clean runs (or vice versa).
	if s := (Config{Faults: true}).String(); s != want+" tcp faults" {
		t.Fatalf("faults config string %q", s)
	}
}

// TestRunFaultsLeg soaks the TCP leg under the chaos schedule: the leg
// must still drain every message while its fault ledger proves the
// recovery machinery actually ran.
func TestRunFaultsLeg(t *testing.T) {
	var rows []Row
	cfg := shortConfig(func(r Row) { rows = append(rows, r) })
	cfg.Faults = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tcpFinal *Row
	for i := range rows {
		if rows[i].Engine == EngineTCP && rows[i].Final {
			tcpFinal = &rows[i]
		}
	}
	if tcpFinal == nil {
		t.Fatal("faults soak emitted no final TCP row")
	}
	if tcpFinal.Completed != 30_000 {
		t.Fatalf("TCP leg completed %d under faults, want 30000", tcpFinal.Completed)
	}
	if tcpFinal.Reconnects == 0 {
		t.Fatal("faults soak recorded no reconnects")
	}
	if tcpFinal.RetransmitFrames == 0 || tcpFinal.RetransmitBytes == 0 {
		t.Fatalf("faults soak recorded no retransmissions: frames=%d bytes=%d",
			tcpFinal.RetransmitFrames, tcpFinal.RetransmitBytes)
	}
	if tcpFinal.OutageSec <= 0 {
		t.Fatalf("faults soak recorded no outage time: %g", tcpFinal.OutageSec)
	}
	found := false
	for _, s := range rep.Summaries {
		if s.Engine == EngineTCP {
			found = true
			if s.Completed != 30_000 {
				t.Fatalf("TCP summary completed %d, want 30000", s.Completed)
			}
		}
	}
	if !found {
		t.Fatal("no TCP summary in faults soak report")
	}
}

// report is a soak report whose every engine ran one leg to completion
// at the given throughputs.
func report(throughput map[string]float64) *Report {
	rep := &Report{Config: Config{TCP: true}.withDefaults()}
	for _, e := range rep.Config.engines() {
		rep.Summaries = append(rep.Summaries, Summary{
			Engine: e, Legs: 1, Completed: rep.Config.Messages, Throughput: throughput[e],
		})
	}
	return rep
}

func TestGate(t *testing.T) {
	cfg := Config{TCP: true}.withDefaults()
	base := []Baseline{
		{Config: cfg.String(), Throughput: map[string]float64{EngineEventsim: 1000, EngineMemory: 500_000, EngineTCP: 300_000}},
		{Config: cfg.String(), Throughput: map[string]float64{EngineEventsim: 1200}},
		{Config: "algo=PoTC other", Throughput: map[string]float64{EngineEventsim: 9999}},
	}

	// Within tolerance of the trajectory best (1200, not 9999: the
	// mismatched config must be ignored).
	rep := report(map[string]float64{EngineEventsim: 1000, EngineMemory: 480_000, EngineTCP: 290_000})
	if v := Gate(rep, base, 0.2); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}

	// The deterministic row below its floor fails.
	rep = report(map[string]float64{EngineEventsim: 700, EngineMemory: 480_000, EngineTCP: 290_000})
	if v := Gate(rep, base, 0.2); len(v) != 1 || !strings.HasPrefix(v[0], EngineEventsim+" throughput") {
		t.Fatalf("violations = %v, want exactly one (eventsim throughput)", v)
	}

	// Wall-clock rows are never gated: halved (and worse), still green.
	rep = report(map[string]float64{EngineEventsim: 1000, EngineMemory: 250_000, EngineTCP: 1})
	if v := Gate(rep, base, 0.2); len(v) != 0 {
		t.Fatalf("wall-clock rows gated: %v", v)
	}

	// A leg that completed fewer messages than planned fails, whatever
	// its throughput — the chaos leg is the one this is for.
	rep.Summaries[2].Completed--
	if v := Gate(rep, base, 0.2); len(v) != 1 || !strings.HasPrefix(v[0], EngineTCP+" completed") {
		t.Fatalf("violations = %v, want exactly one (dspe-tcp short of its plan)", v)
	}

	// No baseline matches the configuration: throughput is not gated,
	// exactness still is.
	rep.Config.Algorithm = "PoTC-variant"
	rep.Summaries[0].Throughput = 1
	if v := Gate(rep, base, 0.2); len(v) != 1 || !strings.HasPrefix(v[0], EngineTCP+" completed") {
		t.Fatalf("mismatched config: violations = %v, want only the short leg", v)
	}
	rep.Summaries[2].Completed++
	if v := Gate(rep, base, 0.2); v != nil {
		t.Fatalf("mismatched config should not gate throughput: %v", v)
	}
}

func TestSummaryTableRoundTrip(t *testing.T) {
	rep := report(map[string]float64{EngineEventsim: 123.45, EngineMemory: 500, EngineTCP: 90000})
	tab := SummaryTable(rep, map[string]string{"seed": "7"})
	if tab.Meta["config"] != rep.Config.String() || tab.Meta["seed"] != "7" {
		t.Fatalf("meta = %v", tab.Meta)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_soak_0.json")
	if err := tab.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	// A non-baseline artifact in the same directory must be skipped.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_soak_bogus.json"), []byte(`{"title":"x","columns":["a"],"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, src := range []string{path, dir} {
		bases, err := LoadBaselines(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(bases) != 1 {
			t.Fatalf("%s: %d baselines, want 1", src, len(bases))
		}
		if bases[0].Config != rep.Config.String() {
			t.Fatalf("config %q", bases[0].Config)
		}
		if got := bases[0].Throughput[EngineEventsim]; got != 123.45 {
			t.Fatalf("eventsim baseline throughput %g", got)
		}
		if got := bases[0].Throughput[EngineTCP]; got != 90000 {
			t.Fatalf("tcp baseline throughput %g", got)
		}
	}
}
