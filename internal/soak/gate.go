package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"slb/internal/texttab"
)

// SummaryTable renders the report's per-engine summaries as the
// BENCH_soak artifact: a texttab table whose Meta carries the
// configuration string the gate keys on, plus any extra metadata
// (seed, timestamp) the caller supplies.
func SummaryTable(rep *Report, extra map[string]string) *texttab.Table {
	t := texttab.New("Soak summary ("+rep.Config.Algorithm+", drifting workload)",
		"engine", "legs", "completed", "elapsed_s", "throughput", "route_ns_per_msg",
		"reduce_util_mean", "reduce_util_max", "rows")
	for _, s := range rep.Summaries {
		t.Addf(s.Engine, s.Legs, s.Completed, s.ElapsedSec, s.Throughput,
			s.RouteNsPerMsg, s.ReduceUtilMean, s.ReduceUtilMax, s.Rows)
	}
	t.Meta = map[string]string{"config": rep.Config.String()}
	for k, v := range extra {
		t.Meta[k] = v
	}
	return t
}

// Baseline is one historical soak summary parsed back out of a
// BENCH_soak artifact.
type Baseline struct {
	Path   string
	Config string
	// Throughput maps engine name to the recorded messages/sec.
	Throughput map[string]float64
}

// parseBaseline decodes one BENCH_soak JSON artifact. Files without a
// "config" meta key (or without the expected columns) are not
// baselines and return an error.
func parseBaseline(path string, data []byte) (Baseline, error) {
	var doc struct {
		Meta    map[string]string `json:"meta"`
		Columns []string          `json:"columns"`
		Rows    [][]string        `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return Baseline{}, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Meta["config"] == "" {
		return Baseline{}, fmt.Errorf("%s: no config metadata", path)
	}
	col := map[string]int{}
	for i, c := range doc.Columns {
		col[c] = i
	}
	ei, ok1 := col["engine"]
	ti, ok2 := col["throughput"]
	if !ok1 || !ok2 {
		return Baseline{}, fmt.Errorf("%s: not a soak summary table", path)
	}
	b := Baseline{Path: path, Config: doc.Meta["config"], Throughput: map[string]float64{}}
	for _, row := range doc.Rows {
		if len(row) <= ei || len(row) <= ti {
			continue
		}
		v, err := strconv.ParseFloat(row[ti], 64)
		if err != nil {
			return Baseline{}, fmt.Errorf("%s: throughput %q: %w", path, row[ti], err)
		}
		b.Throughput[row[ei]] = v
	}
	return b, nil
}

// LoadBaselines reads soak baselines from path: a single BENCH_soak
// JSON file, or a directory whose BENCH_soak*.json files form the
// accumulated trajectory. Non-baseline files in a directory are
// skipped; a file given directly must parse.
func LoadBaselines(path string) ([]Baseline, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		b, err := parseBaseline(path, data)
		if err != nil {
			return nil, err
		}
		return []Baseline{b}, nil
	}
	matches, err := filepath.Glob(filepath.Join(path, "BENCH_soak*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var out []Baseline
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, err
		}
		if b, err := parseBaseline(m, data); err == nil {
			out = append(out, b)
		}
	}
	return out, nil
}

// Gate returns one violation message per failed check; an empty result
// means the gate passes.
//
// Exactness: every engine — the chaos leg included — must have
// completed the messages its legs planned (Legs × Config.Messages); a
// leg that drained short lost messages.
//
// Throughput: only the eventsim row is compared, against the best
// baseline recorded under the same configuration string, failing when
// it fell more than tol (a fraction, e.g. 0.35) below it. That row is
// simulated time — deterministic and host-independent — so a drop is a
// routing or model change. The dspe rows are wall-clock on whatever
// host ran them: they are in the summary and the JSONL for reading, and
// a host that halves them fails nothing. Baselines under other
// configurations are ignored; with none matching only exactness gates.
func Gate(rep *Report, baselines []Baseline, tol float64) []string {
	var violations []string
	for _, s := range rep.Summaries {
		if planned := int64(s.Legs) * rep.Config.Messages; s.Completed < planned {
			violations = append(violations, fmt.Sprintf(
				"%s completed %d of the %d messages its %d leg(s) planned",
				s.Engine, s.Completed, planned, s.Legs))
		}
	}
	cfg := rep.Config.String()
	ref := 0.0
	for _, b := range baselines {
		if b.Config == cfg && b.Throughput[EngineEventsim] > ref {
			ref = b.Throughput[EngineEventsim]
		}
	}
	for _, s := range rep.Summaries {
		if floor := ref * (1 - tol); s.Engine == EngineEventsim && s.Throughput < floor {
			violations = append(violations, fmt.Sprintf(
				"%s throughput %.0f msg/s is %.1f%% below the baseline trajectory best %.0f (floor %.0f at tol %.0f%%)",
				s.Engine, s.Throughput, 100*(1-s.Throughput/ref), ref, floor, 100*tol))
		}
	}
	return violations
}
