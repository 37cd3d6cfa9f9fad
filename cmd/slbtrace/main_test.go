package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenStatsHeadSimRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.slbt")

	if err := cmdGen([]string{"-out", path, "-z", "1.8", "-keys", "500", "-messages", "20000"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	if err := cmdStats([]string{"-in", path}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := cmdHead([]string{"-in", path, "-theta", "0.01", "-top", "3"}); err != nil {
		t.Fatalf("head: %v", err)
	}
	if err := cmdSim([]string{"-in", path, "-algo", "W-C", "-workers", "10"}); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestGenDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ct.slbt")
	if err := cmdGen([]string{"-out", path, "-dataset", "CT", "-scale", "quick"}); err != nil {
		t.Fatalf("gen dataset: %v", err)
	}
	if err := cmdStats([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorsSurface(t *testing.T) {
	if err := cmdGen([]string{}); err == nil {
		t.Error("gen without -out accepted")
	}
	if err := cmdGen([]string{"-out", "/tmp/x.slbt", "-dataset", "NOPE"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := cmdGen([]string{"-out", "/tmp/x2.slbt", "-dataset", "CT", "-scale", "bogus"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Error("stats without -in accepted")
	}
	if err := cmdStats([]string{"-in", "/nonexistent.slbt"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdHead([]string{}); err == nil {
		t.Error("head without -in accepted")
	}
	if err := cmdSim([]string{}); err == nil {
		t.Error("sim without -in accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.slbt")
	if err := cmdGen([]string{"-out", path, "-messages", "100", "-keys", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSim([]string{"-in", path, "-algo", "BOGUS"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestTruncatedTraceRejected: stats and head read a cut trace to its
// torn end and must fail on the shortfall against the declared length,
// not describe the prefix as the whole trace.
func TestTruncatedTraceRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cut.slbt")
	if err := cmdGen([]string{"-out", path, "-z", "1.4", "-keys", "500", "-messages", "20000"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), "of the 20000 messages planned") {
		t.Errorf("stats on a cut trace: %v", err)
	}
	if err := cmdHead([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), "of the 20000 messages planned") {
		t.Errorf("head on a cut trace: %v", err)
	}
	if err := cmdSim([]string{"-in", path, "-algo", "PKG", "-workers", "10"}); err == nil {
		t.Error("sim on a cut trace succeeded")
	}
}

func TestParseScaleMapping(t *testing.T) {
	for _, s := range []string{"quick", "default", "full", ""} {
		if _, err := parseScale(s); err != nil {
			t.Errorf("parseScale(%q): %v", s, err)
		}
	}
	if _, err := parseScale("nope"); err == nil {
		t.Error("parseScale(nope) accepted")
	}
}
