//go:build unix

package dspe

import (
	"syscall"
	"testing"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestSleepBoundRunDoesNotBurnIdleCPU is the guard on what parking
// bought: the paper's Storm shape (1 ms of sleep per message on 32
// workers) leaves every goroutine waiting almost all the time, and
// waiting must be free. With the poll-and-sleep loops this run cost
// ≈ 29 µs of process CPU per message on the 2-vCPU reference host (the
// bench's storm-1ms, default ack window, ≈ 47 µs); parked it costs
// 8–10 µs. The bound sits clear of both.
func TestSleepBoundRunDoesNotBurnIdleCPU(t *testing.T) {
	if raceEnabled {
		t.Skip("CPU budget is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("sleep-bound run")
	}
	const msgs = 4000
	cfg := Config{
		Workers:     32,
		Sources:     1,
		Algorithm:   "D-C",
		ServiceTime: time.Millisecond,
		Transport:   TransportMemory,
		AggWindow:   2000,
	}
	gen := zipfGen(1.4, 10_000, msgs)
	cpu0 := processCPU(t)
	res, err := Run(gen, cfg)
	cpu := processCPU(t) - cpu0
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != msgs {
		t.Fatalf("completed %d, want %d", res.Completed, msgs)
	}
	perMsg := cpu / msgs
	t.Logf("%v of CPU over %v of wall: %v per message", cpu, res.Elapsed, perMsg)
	if perMsg >= 20*time.Microsecond {
		t.Fatalf("sleep-bound run cost %v of CPU per message, want < 20µs: something is polling", perMsg)
	}
}
