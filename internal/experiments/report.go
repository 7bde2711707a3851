// Package experiments regenerates the paper's evaluation artifacts: the
// Table 1 and Table 2 taxonomies (measured empirically rather than
// asserted), the Figure 1 worked examples, and the E1–E15 claim checks
// catalogued in DESIGN.md / EXPERIMENTS.md. It is driven by cmd/reachbench
// and by the root-level Go benchmarks.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a titled table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case time.Duration:
			row[i] = formatDuration(x)
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	var head strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(head.String(), " "))))
	for _, r := range t.rows {
		var line strings.Builder
		for i, cell := range r {
			fmt.Fprintf(&line, "%-*s  ", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func formatBytes(b int) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	}
}
