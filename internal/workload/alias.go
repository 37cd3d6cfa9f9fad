package workload

// Alias samples from an arbitrary finite discrete distribution in O(1)
// per draw using Vose's alias method. Building the table is O(K).
type Alias struct {
	prob  []float64 // acceptance probability of the home slot
	alias []int32   // fallback slot
}

// NewAlias builds an alias table for the given non-negative weights
// (they need not be normalized). It panics on empty input, a non-positive
// total, or any negative weight.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("workload: NewAlias on empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("workload: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("workload: weights sum to zero")
	}

	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}

	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers: both stacks hold slots with p ≈ 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index from the distribution using r.
func (a *Alias) Sample(r *RNG) int {
	u := r.Uint64()
	// Split one uint64 into a slot index and an acceptance coin to avoid a
	// second RNG call: high bits pick the slot, low 53 bits the coin.
	i := int(u % uint64(len(a.prob)))
	coin := float64(r.Uint64()>>11) / (1 << 53)
	if coin < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
