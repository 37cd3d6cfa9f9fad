package analysis

import "math"

// Memory-overhead models (Section IV-B). The unit is "key replicas": the
// number of (key, worker) pairs holding state, assuming unit state per
// key. For a stream of m messages with key probabilities p, the expected
// count of key k is f_k = p_k·m, and a key can occupy at most as many
// workers as it has occurrences.

// ExpectedDistinct returns the expected number of distinct workers hit by
// d independent uniform choices over n workers: n − n((n−1)/n)^d. This is
// BH with h = 1 and accounts for hash collisions among a key's choices.
func ExpectedDistinct(n, d int) float64 {
	return BH(n, 1, d)
}

// MemPKG models Σ_k min(f_k, 2): each key is split over at most two
// workers (the paper's memPKG estimate).
func MemPKG(probs []float64, m float64) float64 {
	total := 0.0
	for _, p := range probs {
		total += math.Min(p*m, 2)
	}
	return total
}

// MemSG models Σ_k min(f_k, n): shuffle grouping may replicate any key on
// every worker (the paper's memSG estimate).
func MemSG(probs []float64, m float64, n int) float64 {
	total := 0.0
	nf := float64(n)
	for _, p := range probs {
		total += math.Min(p*m, nf)
	}
	return total
}

// MemDC models D-Choices: head keys are split over at most
// ExpectedDistinct(n, d) workers, tail keys over at most two.
func MemDC(probs []float64, m float64, n, d int, theta float64) float64 {
	head, _ := SplitHead(probs, theta)
	limit := ExpectedDistinct(n, d)
	total := 0.0
	for i, p := range probs {
		if i < len(head) {
			total += math.Min(p*m, limit)
		} else {
			total += math.Min(p*m, 2)
		}
	}
	return total
}

// MemWC models W-Choices (and Round-Robin, which has the same cost):
// head keys may reach all n workers, tail keys at most two.
func MemWC(probs []float64, m float64, n int, theta float64) float64 {
	head, _ := SplitHead(probs, theta)
	total := 0.0
	nf := float64(n)
	for i, p := range probs {
		if i < len(head) {
			total += math.Min(p*m, nf)
		} else {
			total += math.Min(p*m, 2)
		}
	}
	return total
}

// OverheadPct returns the relative overhead of cost a versus baseline b,
// in percent: 100·(a−b)/b. Positive means a uses more memory.
func OverheadPct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}
