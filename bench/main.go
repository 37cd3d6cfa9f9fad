// Command bench is the repository's benchmark: four named workloads
// driven through the public entry points, every end-to-end metric
// measured with tracing off, and a traced run that splits one message's
// cost into the layers it crosses. See README.md.
//
//	go run -C bench . --workload agg-mem --seed 7 --seconds 20 --trace 0
//	go run -C bench . -runs 10          # the whole set, into out/ledger.json
//	go run -C bench . compare A.json B.json
//	go run -C bench . spec              # BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. Its first four fields are the
// line the driver reads; the rest is detail for the result file.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string       `json:"workload,omitempty"`
	Seed     uint64       `json:"seed,omitempty"`
	Scale    string       `json:"scale,omitempty"`
	Seconds  float64      `json:"seconds,omitempty"`
	Traced   bool         `json:"traced,omitempty"`
	Cells    []cellResult `json:"cells,omitempty"`
	Errors   []string     `json:"errors,omitempty"`
	Host     *hostFacts   `json:"host,omitempty"`
}

func (r *runResult) set(name string, v float64) {
	d, ok := declOf(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Errors = append(r.Errors, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

// driverLine is the contract's last stdout line: exactly four keys.
func (r *runResult) driverLine() string {
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(b)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	runs     int
	out      string
	label    string
	child    bool
}

// runWorkload is one run in this process: set-up, then either the
// untraced timed region or the traced passes.
func runWorkload(w *workload, o options) *runResult {
	sc := scale{quick: o.quick}
	h := host()
	res := &runResult{
		Metrics: map[string]metricValue{}, Workload: w.Name, Seed: o.seed,
		Scale: sc.String(), Seconds: o.seconds, Traced: o.trace != 0, Host: &h,
	}
	sc.warm(6 * warmup)
	prep, setup, err := timedSetup(w, sc, o.seed)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		res.Attempted, res.Failed = 1, 1
		return res
	}
	if o.trace == 0 {
		untraced(w, sc, prep, o.seconds, res)
		res.set("setup_s", setup)
		res.set("peak_rss_mb", peakRSSMiB())
	} else {
		tr := newTracer()
		traced(w, sc, prep, tr, res)
		path := filepath.Join(o.out, "trace-"+w.Name+".json")
		if err := tr.write(path, w.Name, o.seed); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	if len(res.Errors) > 0 && res.Failed == 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res
}

// resultPath is where a child leaves its run for the parent to read.
func resultPath(o options) string {
	name := "result-" + o.workload + ".json"
	if o.trace != 0 {
		name = "result-" + o.workload + "-traced.json"
	}
	return filepath.Join(o.out, name)
}

// childMain is `bench -child`: run one workload and write its result
// file.
func childMain(o options) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := writeJSON(resultPath(o), runWorkload(w, o)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childTimeout bounds one child: its timed region, the five set-ups
// and the traced passes, with room to spare, yet inside the driver's
// 180 s per run.
func childTimeout(seconds float64) time.Duration {
	return min(170*time.Second, time.Duration(3*seconds+90)*time.Second)
}

// spawn runs one workload in a child process of this same binary, so
// peak RSS, CPU time and a hang or crash belong to that workload alone.
// A child that fails or times out yields a result with every planned
// message failed.
func spawn(o options, timeout time.Duration) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	args := []string{"-child", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", o.out}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	res := &runResult{Metrics: map[string]metricValue{}}
	if runErr == nil {
		var b []byte
		if b, runErr = os.ReadFile(resultPath(o)); runErr == nil {
			runErr = json.Unmarshal(b, res)
		}
	}
	if runErr != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			runErr = fmt.Errorf("timed out after %v: %w", timeout, runErr)
		}
		w, _ := findWorkload(o.workload)
		*res = runResult{Metrics: map[string]metricValue{}, Workload: o.workload, Seed: o.seed, Traced: o.trace != 0}
		for _, c := range w.Cells {
			res.Attempted += scale{o.quick}.msgs(c)
		}
		res.Failed = res.Attempted
		res.Errors = []string{runErr.Error()}
		return res, runErr
	}
	return res, nil
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:])
		case "spec":
			b, err := benchmarkJSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			os.Stdout.Write(b)
			return 0
		}
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (one run; the driver's form)")
	fs.Uint64Var(&o.seed, "seed", 7, "stream seed; run r of -runs uses seed+r")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of the untraced timed region")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced passes (per-layer metrics) instead of the timed region")
	fs.BoolVar(&o.quick, "quick", false, "test scale: at most 1e5 messages per cell")
	fs.IntVar(&o.runs, "runs", 1, "whole-set mode: repeat the set this many times, interleaving workloads")
	fs.StringVar(&o.out, "out", "out", "directory for result, trace and ledger files")
	fs.StringVar(&o.label, "label", "", "whole-set mode: free text stored in the ledger (e.g. the commit)")
	fs.BoolVar(&o.child, "child", false, "internal: run in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.child {
		return childMain(o)
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		res, err := spawn(o, childTimeout(o.seconds))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		printRun(os.Stderr, res)
		fmt.Println(res.driverLine())
		if err != nil {
			return 1
		}
		// A completed run exits 0 even when a check failed: the driver
		// reads `correct` and `failed` from the line above.
		return 0
	}
	return wholeSet(o)
}
