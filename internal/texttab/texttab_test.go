package texttab

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAddPanicsOnArityMismatch(t *testing.T) {
	tab := New("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab.Add("only-one")
}

func TestFprintAlignment(t *testing.T) {
	tab := New("demo", "name", "value")
	tab.Add("x", "1")
	tab.Add("longer-name", "2")
	var b strings.Builder
	if err := tab.Fprint(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[3], "x          ") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestAddfFormats(t *testing.T) {
	tab := New("", "a", "b", "c", "d")
	tab.Addf("s", 0.000012, 42, int64(7))
	row := tab.Rows[0]
	if row[0] != "s" || row[1] != "1.20e-05" || row[2] != "42" || row[3] != "7" {
		t.Fatalf("Addf row = %v", row)
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{0.5, "0.5000"},
		{123.456, "123.46"},
		{5e-7, "5.00e-07"},
		{12345.6, "12346"},
	} {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tab := New("csv", "k", "v")
	tab.Add("plain", "1")
	tab.Add(`quote"inside`, "a,b")
	path := filepath.Join(dir, "sub", "out.csv")
	if err := tab.WriteCSV(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "k,v\nplain,1\n\"quote\"\"inside\",\"a,b\"\n"
	if string(data) != want {
		t.Fatalf("csv = %q, want %q", data, want)
	}
}

// failWriter errors after a fixed number of bytes, exercising Fprint's
// error propagation.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, os.ErrClosed
	}
	f.budget -= len(p)
	return len(p), nil
}

func TestFprintPropagatesWriterErrors(t *testing.T) {
	tab := New("t", "a", "b")
	for i := 0; i < 10; i++ {
		tab.Add("xxxx", "yyyy")
	}
	for _, budget := range []int{0, 5, 20} {
		if err := tab.Fprint(&failWriter{budget: budget}); err == nil {
			t.Errorf("budget %d: error not propagated", budget)
		}
	}
}

func TestAddfDefaultFormatting(t *testing.T) {
	tab := New("", "a", "b")
	tab.Addf(uint64(7), float32(0.5))
	if tab.Rows[0][0] != "7" || tab.Rows[0][1] != "0.5000" {
		t.Fatalf("Addf row = %v", tab.Rows[0])
	}
	type custom struct{ X int }
	tab2 := New("", "a")
	tab2.Addf(custom{X: 3})
	if tab2.Rows[0][0] != "{3}" {
		t.Fatalf("fallback formatting = %q", tab2.Rows[0][0])
	}
}

func TestWriteCSVBadDir(t *testing.T) {
	tab := New("", "a")
	tab.Add("1")
	if err := tab.WriteCSV("/proc/nonexistent/x/y.csv"); err == nil {
		t.Fatal("WriteCSV into unwritable path should fail")
	}
}

func TestWriteJSON(t *testing.T) {
	tab := New("perf \"quoted\"", "n", "ns/msg")
	tab.Add("16", "59.3")
	tab.Add("4096", "a,b\nc\t")
	path := filepath.Join(t.TempDir(), "sub", "BENCH_x_0.json")
	if err := tab.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, data)
	}
	if got.Title != tab.Title {
		t.Fatalf("title = %q, want %q", got.Title, tab.Title)
	}
	if len(got.Columns) != 2 || got.Columns[1] != "ns/msg" {
		t.Fatalf("columns = %v", got.Columns)
	}
	if len(got.Rows) != 2 || got.Rows[1][1] != "a,b\nc\t" {
		t.Fatalf("rows = %v", got.Rows)
	}
}

func TestWriteJSONMeta(t *testing.T) {
	dir := t.TempDir()
	tab := New("Meta", "a")
	tab.Add("1")

	// Without metadata the "meta" field is omitted entirely, keeping
	// pre-existing BENCH artifacts byte-stable.
	bare := filepath.Join(dir, "bare.json")
	if err := tab.WriteJSON(bare); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bare)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "{\n  \"title\": \"Meta\",\n  \"columns\": [\n    \"a\"\n  ],\n  \"rows\": [\n    [\n      \"1\"\n    ]\n  ]\n}\n" {
		t.Fatalf("bare JSON changed:\n%s", raw)
	}

	tab.Meta = map[string]string{"seed": "7", "scale": "quick"}
	withMeta := filepath.Join(dir, "meta.json")
	if err := tab.WriteJSON(withMeta); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(withMeta)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Meta map[string]string `json:"meta"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Meta["seed"] != "7" || doc.Meta["scale"] != "quick" {
		t.Fatalf("meta round-trip wrong: %v", doc.Meta)
	}
}
