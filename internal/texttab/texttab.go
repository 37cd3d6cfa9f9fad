// Package texttab renders small result tables as aligned text and CSV.
// The experiment harness emits every figure and table of the paper
// through this package, so outputs are uniform and machine-readable.
package texttab

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Table is an ordered grid of string cells with a header. Meta is
// free-form run metadata (configuration, seed, timestamp) carried into
// the JSON artifact so downstream consumers can key on how the numbers
// were produced, not just on the file name; it does not affect the
// text or CSV renderings.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Meta    map[string]string
}

// New returns an empty table with the given title and column header.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends one row; the cell count must match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("texttab: row has %d cells, header has %d", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row of formatted values: strings pass through, floats
// are rendered compactly, ints in full.
func (t *Table) Addf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		cells[i] = formatCell(v)
	}
	t.Add(cells...)
}

func formatCell(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return FormatFloat(x)
	case float32:
		return FormatFloat(float64(x))
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	default:
		return fmt.Sprint(v)
	}
}

// FormatFloat renders a float compactly: scientific notation for very
// small magnitudes (imbalances), fixed point otherwise.
func FormatFloat(f float64) string {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	switch {
	case f == 0:
		return "0"
	case abs < 1e-3:
		return strconv.FormatFloat(f, 'e', 2, 64)
	case abs < 10:
		return strconv.FormatFloat(f, 'f', 4, 64)
	case abs < 1000:
		return strconv.FormatFloat(f, 'f', 2, 64)
	default:
		return strconv.FormatFloat(f, 'f', 0, 64)
	}
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// WriteCSV writes the table (header + rows) to path, creating parent
// directories as needed.
func (t *Table) WriteCSV(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteJSON writes the table to path as a single JSON object
// {"title", "meta", "columns", "rows"} with every cell a string,
// creating parent directories as needed. This is the machine-readable
// artifact format the CI perf trajectory accumulates (BENCH_*.json):
// stable field order (map keys marshal sorted), indented, diffable
// across commits. "meta" is omitted when the table carries none.
func (t *Table) WriteJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	data, err := json.MarshalIndent(struct {
		Title   string            `json:"title"`
		Meta    map[string]string `json:"meta,omitempty"`
		Columns []string          `json:"columns"`
		Rows    [][]string        `json:"rows"`
	}{t.Title, t.Meta, t.Columns, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
