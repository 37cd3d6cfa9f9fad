package transport

// ChaosConfig is the TCP backend's deterministic fault schedule
// (TCPConfig.Chaos): the verdict on a link's n-th sender-side buffer
// write is a pure function of (Seed, link name, n), so the same seed
// and per-link traffic order always produce the same drops and severs,
// and fault tests are reproducible. The link's writer goroutine, the
// only goroutine that writes to its connection, owns the index; each
// verdict is counted per link in transport_chaos_writes_total,
// transport_chaos_drops_total and transport_chaos_severs_total.
type ChaosConfig struct {
	// Seed derandomizes the drop schedule; 0 means 1.
	Seed uint64
	// DropOneIn drops roughly one in N buffer writes: the bytes vanish
	// before reaching the kernel, and the receiver's sequence gap or the
	// sender's ack timeout forces a retransmission. 0 disables drops.
	DropOneIn int
	// SeverEvery closes the connection mid-stream on every N-th buffer
	// write, forcing a reconnect + resend episode. The counter-based
	// schedule guarantees every link with enough traffic is severed. 0
	// disables severs.
	SeverEvery int
}

// chaos verdicts for one buffer write.
const (
	chaosPass = iota
	chaosDrop
	chaosSever
)

// verdict judges write n (1-based) of the link whose hashName is link.
func (c *ChaosConfig) verdict(link, n uint64) int {
	if k := c.SeverEvery; k > 0 && n%uint64(k) == 0 {
		return chaosSever
	}
	if k := c.DropOneIn; k > 0 && mix64(c.Seed^link^n*0x9e3779b97f4a7c15)%uint64(k) == 0 {
		return chaosDrop
	}
	return chaosPass
}
