package slb_test

// The figures are a gated artefact: every deterministic experiment's
// quick-scale text is committed under testdata/figures/, one file per
// experiment, and this test regenerates each in-process and compares
// byte for byte. A changed figure is therefore a diff in the change that
// moved it. After an intentional change, rewrite the files with
//
//	go test -run '^TestFiguresMatchCommitted$' -update .
//
// The wall-clock experiments (live-fig13, aggregation, scale, transport)
// depend on the host and stay out.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"slb/internal/experiments"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures/ from the current code")

// figureNames lists the pinned experiments: every simulation experiment
// and the discrete-event cluster ones.
func figureNames() []string {
	var names []string
	for _, e := range experiments.List(false) {
		names = append(names, e.Name)
	}
	return append(names, "fig13", "fig14", "ablate-saturation", "ablate-straggler")
}

func TestFiguresMatchCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerating every figure is skipped in -short")
	}
	for _, name := range figureNames() {
		t.Run(name, func(t *testing.T) {
			e, ok := experiments.Lookup(name)
			if !ok {
				t.Fatalf("experiment %q is not registered", name)
			}
			tabs, err := e.Run(experiments.Quick)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, tab := range tabs {
				if err := tab.Fprint(&got); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", "figures", name+".txt")
			if *updateFigures {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from %s:\n--- committed\n%s\n--- now\n%s", name, path, want, got.Bytes())
			}
		})
	}
}
