// Package metrics holds the paper's imbalance metric I(t) over worker
// load vectors, shared by the simulator and both engines. Latency
// percentiles come from telemetry.Histogram; key replicas (the memory
// overhead) are counted where the state lives: the aggregation
// reducer's slots, and the simulator's own per-key worker sets.
package metrics

// Imbalance returns I = max(load) − avg(load) for a vector of absolute
// loads, normalized by total so the result is a fraction of the stream
// (the definition in Section II). An empty or all-zero vector yields 0.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var max, sum int64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	return float64(max)/float64(sum) - 1.0/float64(len(loads))
}
