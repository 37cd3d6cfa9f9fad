package main

import (
	"slb"
)

// materialise draws n keys of a Zipf(z) stream over `keys` distinct keys
// once, so the timed regions replay memory instead of paying the alias
// sampler; the program under test only ever sees these generated keys.
func materialise(z float64, keys, n int, seed uint64) []string {
	gen := slb.NewZipfStream(z, keys, int64(n), seed)
	slab := make([]string, n)
	for i := 0; i < n; {
		got := slb.NextBatch(gen, slab[i:])
		if got == 0 {
			panic("bench: zipf stream ended early")
		}
		i += got
	}
	return slab
}

// cycle is the bench-owned generator: `limit` messages read from a
// materialised slab, wrapping around when limit exceeds its length.
// It implements slb.BatchGenerator.
type cycle struct {
	slab  []string
	limit int64
	pos   int64
}

func newCycle(slab []string, limit int64) *cycle { return &cycle{slab: slab, limit: limit} }

func (c *cycle) Len() int64 { return c.limit }
func (c *cycle) Reset()     { c.pos = 0 }

func (c *cycle) Next() (string, bool) {
	if c.pos >= c.limit {
		return "", false
	}
	k := c.slab[c.pos%int64(len(c.slab))]
	c.pos++
	return k, true
}

func (c *cycle) NextBatch(dst []string) int {
	if rem := c.limit - c.pos; rem < int64(len(dst)) {
		dst = dst[:rem]
	}
	filled := 0
	for filled < len(dst) {
		off := int((c.pos + int64(filled)) % int64(len(c.slab)))
		filled += copy(dst[filled:], c.slab[off:])
	}
	c.pos += int64(filled)
	return filled
}
