package main

import (
	"fmt"

	"slb"
)

// fingerprint condenses a set of finals into an order-independent
// value: the wrapping sum of mix(window, key digest, count) plus how
// many finals there were and how many messages they count. Two runs
// emitted the same finals iff (with hash-collision probability) their
// fingerprints are equal, whatever order reducer shards interleaved in.
type fingerprint struct {
	Sum    uint64 `json:"sum"`
	Finals int64  `json:"finals"`
	Total  int64  `json:"total"`
}

func fmix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (f *fingerprint) add(window int64, dig slb.KeyDigest, count int64) {
	h := fmix(uint64(dig) ^ uint64(window)*0x9e3779b97f4a7c15)
	f.Sum += fmix(h ^ uint64(count)*0xc2b2ae3d27d4eb4f)
	f.Finals++
	f.Total += count
}

func (f *fingerprint) addFinal(fin slb.AggFinal) { f.add(fin.Window, fin.Digest, fin.Count) }

// groundTruth is the reference computation: a plain map count per
// tumbling window over the generator's messages, sharing no code with
// the aggregation layer beyond the key digest used as the key's name.
func groundTruth(gen *cycle, aggWindow int64) fingerprint {
	var fp fingerprint
	gen.Reset()
	counts := make(map[string]int64)
	keys := make([]string, 4096)
	var seq int64
	closeWindow := func(w int64) {
		for k, n := range counts {
			fp.add(w, slb.DigestKey(k), n)
		}
		clear(counts)
	}
	for {
		n := gen.NextBatch(keys)
		if n == 0 {
			break
		}
		for _, k := range keys[:n] {
			if seq > 0 && seq%aggWindow == 0 {
				closeWindow(seq/aggWindow - 1)
			}
			counts[k]++
			seq++
		}
	}
	if len(counts) > 0 {
		closeWindow((seq - 1) / aggWindow)
	}
	gen.Reset()
	return fp
}

// checks collects the failures of one cell-round; a cell-round with any
// failure counts all of its messages as failed.
type checks struct{ errs []string }

func (c *checks) failf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// checkFinals compares an engine (or staged) run's finals with the
// reference and with its own message count.
func (c *checks) checkFinals(who string, got, want fingerprint, msgs int64) {
	if got.Total != msgs {
		c.failf("%s: finals count %d messages, ran %d", who, got.Total, msgs)
	}
	if got != want {
		c.failf("%s: finals fingerprint %x/%d finals, reference %x/%d", who, got.Sum, got.Finals, want.Sum, want.Finals)
	}
}

// checkLoads verifies a load vector accounts for every message and
// returns max load over mean load.
func (c *checks) checkLoads(who string, loads []int64, msgs int64) float64 {
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum != msgs {
		c.failf("%s: loads sum to %d, routed %d", who, sum, msgs)
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(loads)) / float64(sum)
}
