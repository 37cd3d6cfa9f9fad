package eventsim

import "math"

// slowPathFactor prices a slow-path hop (Config.LinkSlowOneIn): it
// costs this many times LinkDelay + LinkJitter on top of its delay.
const slowPathFactor = 10

// linkDelays is the deterministic per-link delay and outage model for
// the worker→reducer hop (Config.LinkDelay and Config.LinkOutage*).
// Each (worker, shard) pair is one link with its own hop counter; a
// hop's delay is
//
//	base + jitter·u + [slow-path penalty]
//
// where u ∈ [0, 1) and the slow-path choice both derive from a
// splitmix-style hash of (worker, shard, hop index). On top of the
// delay, each link may suffer periodic outage windows: once per
// LinkOutagePeriod the link goes dark for LinkOutageDuration, with a
// per-link hash-derived phase so links fail staggered, not in
// lockstep. A partial whose arrival lands inside an outage window is
// lost and retransmitted when the link recovers — modeled as a
// deferred arrival charged into the reducer station recurrence, the
// cost profile of internal/transport's reconnect-and-resend episode.
// The same config therefore always produces the same delays, outages
// and retransmissions — the simulation stays bit-reproducible — while
// consecutive hops on one link still see uncorrelated jitter and
// staggered outages, like a real path.
type linkDelays struct {
	base    float64
	jitter  float64
	slowIn  uint64 // one in N hops is slow; 0 = never
	penalty float64
	period  float64  // outage cycle length (ms); 0 = no outages
	dur     float64  // dark time per cycle (ms)
	hops    []uint64 // per (worker, shard) hop counters
	shards  int

	// outage ledger, reported on Result
	retransmits int64
	outageWait  float64
}

func newLinkDelays(cfg Config) *linkDelays {
	if cfg.LinkDelay <= 0 && cfg.LinkOutagePeriod <= 0 {
		return nil
	}
	return &linkDelays{
		base:    cfg.LinkDelay,
		jitter:  cfg.LinkJitter,
		slowIn:  uint64(cfg.LinkSlowOneIn),
		penalty: slowPathFactor * (cfg.LinkDelay + cfg.LinkJitter),
		period:  cfg.LinkOutagePeriod,
		dur:     cfg.LinkOutageDuration,
		hops:    make([]uint64, cfg.Workers*cfg.AggShards),
		shards:  cfg.AggShards,
	}
}

// hop returns the delay of the next hop on link (w, r) and advances
// that link's hop counter.
func (l *linkDelays) hop(w, r int) float64 {
	i := w*l.shards + r
	n := l.hops[i]
	l.hops[i] = n + 1
	x := uint64(i)<<32 ^ n ^ 0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d := l.base
	if l.jitter > 0 {
		d += l.jitter * float64(x>>40) / float64(1<<24)
	}
	if l.slowIn > 0 && x%l.slowIn == 0 {
		d += l.penalty
	}
	return d
}

// phase returns link i's outage phase offset in [0, period): a
// splitmix-style hash of the link index, so links go dark staggered.
func (l *linkDelays) phase(i int) float64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return l.period * float64(x>>40) / float64(1<<24)
}

// deliver returns the arrival time at shard r's station of a partial
// sent on link (w, r) at time t: the per-hop delay (when the delay
// model is on), plus any outage deferral — an arrival inside the
// link's dark window is a lost frame, retransmitted and re-arriving
// when the link recovers. Nil receivers (model off) are not called.
func (l *linkDelays) deliver(w, r int, t float64) float64 {
	if l.base > 0 {
		t += l.hop(w, r)
	}
	if l.period > 0 {
		pos := math.Mod(t-l.phase(w*l.shards+r), l.period)
		if pos < 0 {
			pos += l.period
		}
		if pos < l.dur {
			wait := l.dur - pos
			l.retransmits++
			l.outageWait += wait
			t += wait
		}
	}
	return t
}
