// Package stats renders experiment results as aligned text, markdown, or CSV
// tables, and provides the small statistical helpers (normalization, means,
// reductions) the harness uses to compare against the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it must match the header count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			out[i] = v
		case float64:
			out[i] = fmt.Sprintf("%.4g", v)
		case int:
			out[i] = fmt.Sprintf("%d", v)
		case int64:
			out[i] = fmt.Sprintf("%d", v)
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Headers, " | "))
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (naive quoting: cells
// containing commas or quotes are double-quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percentile returns the p-th percentile (0 < p <= 100) by the nearest-rank
// method: the smallest value with at least p% of the sample at or below it.
// Empty input returns 0. Nearest-rank is exact and deterministic — no
// interpolation — so percentile tables are byte-stable across runs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(c) {
		rank = len(c)
	}
	return c[rank-1]
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for non-negative
// allocations or slowdowns: 1 when all values are equal, approaching 1/n as
// one value dominates. Empty or all-zero input returns 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum, sumSq := 0.0, 0.0
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Max returns the maximum value (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// FormatSeconds renders a duration with an adaptive unit (ns/µs/ms/s).
func FormatSeconds(s float64) string {
	abs := math.Abs(s)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-6:
		return fmt.Sprintf("%.3gns", s*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.4gms", s*1e3)
	default:
		return fmt.Sprintf("%.4gs", s)
	}
}

// FormatBytes renders a byte count with an adaptive binary unit.
func FormatBytes(b int64) string {
	const kib = 1024
	switch {
	case b < kib:
		return fmt.Sprintf("%dB", b)
	case b < kib*kib:
		return fmt.Sprintf("%.3gKiB", float64(b)/kib)
	case b < kib*kib*kib:
		return fmt.Sprintf("%.4gMiB", float64(b)/(kib*kib))
	default:
		return fmt.Sprintf("%.4gGiB", float64(b)/(kib*kib*kib))
	}
}
