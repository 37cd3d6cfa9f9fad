package workload

import "slb/internal/stream"

// Drift wraps a Zipf rank process with epoch-based concept drift: within
// epoch e, the key that carries rank r is rotated to identity
// (r + e·stride) mod keys, so the hottest keys change every epoch while
// the per-epoch frequency profile stays fixed. This reproduces the
// behaviour of the paper's Twitter-cashtag (CT) dataset, whose key
// distribution "changes drastically throughout time" and which exists to
// stress the online heavy-hitter tracker.
type Drift struct {
	zipf     *Zipf
	keys     []string
	epochLen int64
	stride   int
	emitted  int64
}

// NewDrift builds a drifting generator: exponent z over `keys` keys,
// `messages` total, rotating identities every epochLen messages by
// stride. stride should exceed the expected head cardinality so that
// consecutive epochs have disjoint hot sets.
func NewDrift(z float64, keys int, messages int64, epochLen int64, stride int, seed uint64) *Drift {
	if epochLen <= 0 {
		panic("workload: epochLen must be positive")
	}
	if stride <= 0 {
		panic("workload: stride must be positive")
	}
	z0 := NewZipf(z, keys, messages, seed)
	names := make([]string, keys)
	for i := range names {
		names[i] = "c" + itoa(i)
	}
	return &Drift{zipf: z0, keys: names, epochLen: epochLen, stride: stride}
}

// NextBatch implements stream.Generator. The epoch is derived per
// message, since a slab may straddle an epoch boundary.
func (d *Drift) NextBatch(dst []string) int {
	filled := 0
	for filled < len(dst) {
		rank, ok := d.zipf.NextRank()
		if !ok {
			break
		}
		epoch := d.emitted / d.epochLen
		d.emitted++
		dst[filled] = d.keys[(rank+int(epoch)*d.stride)%len(d.keys)]
		filled++
	}
	return filled
}

// Len implements stream.Generator.
func (d *Drift) Len() int64 { return d.zipf.Len() }

// Reset implements stream.Generator.
func (d *Drift) Reset() {
	d.zipf.Reset()
	d.emitted = 0
}

var _ stream.Generator = (*Drift)(nil)
