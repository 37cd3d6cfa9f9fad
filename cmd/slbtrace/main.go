// Command slbtrace generates, inspects and replays binary key-stream
// traces (the .slbt format of internal/tracefile).
//
// Usage:
//
//	slbtrace gen   -out trace.slbt [-dataset WP|TW|CT | -z 1.4 -keys 10000] [-messages 1000000] [-seed 42] [-scale quick|default|full] [-payload keylen|mix]
//	slbtrace stats -in trace.slbt
//	slbtrace head  -in trace.slbt [-theta 0.004] [-top 20]
//	slbtrace sim   -in trace.slbt -algo D-C [-workers 50] [-sources 5]
//
// Examples:
//
//	slbtrace gen -out wp.slbt -dataset WP -scale default
//	slbtrace stats -in wp.slbt
//	slbtrace sim -in wp.slbt -algo PKG -workers 100
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"slb/internal/core"
	"slb/internal/hashing"
	"slb/internal/simulator"
	"slb/internal/spacesaving"
	"slb/internal/stream"
	"slb/internal/tracefile"
	"slb/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "head":
		err = cmdHead(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slbtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: slbtrace <gen|stats|head|sim> [flags]

  gen    generate a trace file from a synthetic workload
  stats  print Table-I statistics of a trace
  head   print the heavy hitters of a trace (SpaceSaving)
  sim    partition a trace and report the load imbalance

run 'slbtrace <cmd> -h' for per-command flags`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output trace file (required)")
	dataset := fs.String("dataset", "", "dataset stand-in: WP, TW or CT (overrides -z/-keys)")
	z := fs.Float64("z", 1.4, "Zipf exponent")
	keys := fs.Int("keys", 10_000, "distinct keys")
	messages := fs.Int64("messages", 1_000_000, "messages to generate")
	seed := fs.Uint64("seed", 42, "generator seed")
	scale := fs.String("scale", "default", "dataset scale: quick|default|full")
	payload := fs.String("payload", "", "record per-message payload values (version-2 trace): keylen|mix")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}

	var gen stream.Generator
	if *dataset != "" {
		ws, err := parseScale(*scale)
		if err != nil {
			return err
		}
		g, ok := workload.DatasetByName(*dataset, ws, *seed)
		if !ok {
			return fmt.Errorf("gen: unknown dataset %q", *dataset)
		}
		gen = g
	} else {
		gen = workload.NewZipf(*z, *keys, *messages, *seed)
	}
	if *payload != "" {
		fn, err := payloadFunc(*payload)
		if err != nil {
			return err
		}
		// Derive once at record time: the trace is written as version
		// 2, and every replay supplies these values as recorded data
		// (the engines' sampling contract — see stream.Source).
		gen = stream.WithValues(gen, fn)
	}

	n, err := tracefile.WriteFile(*out, gen)
	if err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d messages to %s (%.2f bytes/message)\n",
		n, *out, float64(info.Size())/float64(n))
	return nil
}

// payloadFunc maps a -payload model name to a deterministic derivation;
// the derived values are written into the trace, so every replay of the
// file observes the same samples regardless of the model chosen here.
func payloadFunc(name string) (func(key string, seq int64) int64, error) {
	switch name {
	case "keylen":
		return func(key string, _ int64) int64 { return int64(len(key)) }, nil
	case "mix":
		// A sign-varying mix of key identity and position: exercises
		// sum/min/max mergers with non-trivial, reproducible samples.
		return func(key string, seq int64) int64 {
			v := int64(hashing.Digest(key))%1000 + seq%97
			if seq%5 == 0 {
				v = -v
			}
			return v
		}, nil
	}
	return nil, fmt.Errorf("gen: unknown payload model %q (keylen|mix)", name)
}

func parseScale(s string) (workload.Scale, error) {
	switch s {
	case "quick":
		return workload.Quick, nil
	case "default", "":
		return workload.Default, nil
	case "full":
		return workload.Full, nil
	}
	return workload.Quick, fmt.Errorf("unknown scale %q", s)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	g, err := tracefile.OpenFile(*in)
	if err != nil {
		return err
	}
	defer g.Close()
	st := stream.Collect(g)
	if err := stream.CheckDrawn(st.Messages, g.Len()); err != nil {
		return fmt.Errorf("stats: %s: %w", *in, err)
	}
	fmt.Printf("messages: %d\nkeys:     %d\np1:       %.4f%% (key %q)\n",
		st.Messages, st.Keys, 100*st.P1, st.TopKey)
	if g.HasValues() {
		g.Reset()
		keys := make([]string, 512)
		vals := make([]int64, 512)
		var sum, n int64
		for {
			c := g.NextBatchValues(keys, vals)
			if c == 0 {
				break
			}
			for _, v := range vals[:c] {
				sum += v
			}
			n += int64(c)
		}
		fmt.Printf("payload:  recorded (version 2), sum %d, mean %.3f\n",
			sum, float64(sum)/float64(n))
	} else {
		fmt.Println("payload:  none (version 1; replay supplies the constant 1)")
	}
	return nil
}

func cmdHead(args []string) error {
	fs := flag.NewFlagSet("head", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	theta := fs.Float64("theta", 0.004, "head frequency threshold θ")
	top := fs.Int("top", 20, "max keys to print")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("head: -in is required")
	}
	g, err := tracefile.OpenFile(*in)
	if err != nil {
		return err
	}
	defer g.Close()

	capacity := int(4 / *theta)
	if capacity < 64 {
		capacity = 64
	}
	sketch := spacesaving.New(capacity)
	// Drive the batch emission path and the digest-keyed sketch: one
	// digest per key, slab-at-a-time reads from the trace.
	slab := make([]string, 512)
	for {
		n := g.NextBatch(slab)
		if n == 0 {
			break
		}
		for _, k := range slab[:n] {
			sketch.OfferDigest(hashing.Digest(k), k)
		}
	}
	if err := stream.CheckDrawn(int64(sketch.N()), g.Len()); err != nil {
		return fmt.Errorf("head: %s: %w", *in, err)
	}
	hh := sketch.HeavyHitters(*theta)
	sort.Slice(hh, func(i, j int) bool { return hh[i].Count > hh[j].Count })
	if len(hh) > *top {
		hh = hh[:*top]
	}
	fmt.Printf("head at θ=%g over %d messages (%d keys shown):\n", *theta, sketch.N(), len(hh))
	for _, e := range hh {
		fmt.Printf("  %-24s est %.4f%%  (count %d, err ≤ %d)\n",
			e.Key, 100*float64(e.Count)/float64(sketch.N()), e.Count, e.Err)
	}
	return nil
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	in := fs.String("in", "", "trace file (required)")
	algo := fs.String("algo", "D-C", "partitioner: KG, SG, PKG, D-C, W-C, RR")
	workers := fs.Int("workers", 50, "number of workers n")
	sources := fs.Int("sources", 5, "number of sources s")
	seed := fs.Uint64("seed", 42, "hash seed")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("sim: -in is required")
	}
	g, err := tracefile.OpenFile(*in)
	if err != nil {
		return err
	}
	defer g.Close()

	res, err := simulator.Run(g, *algo, core.Config{Workers: *workers, Seed: *seed},
		simulator.Options{Sources: *sources})
	if err != nil {
		return err
	}
	fmt.Printf("algorithm: %s\nworkers:   %d\nsources:   %d\nmessages:  %d\nimbalance: %.6g\n",
		res.Algorithm, res.Workers, res.Sources, res.Messages, res.Imbalance)
	if res.FinalD > 0 {
		fmt.Printf("final d:   %d\n", res.FinalD)
	}
	return nil
}
