// Package report renders the tables and figures of the evaluation as
// aligned text, CSV, and ASCII bar charts, so every artifact of the paper
// can be regenerated on a terminal.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteString("\n")
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		for i := 0; i < cols; i++ {
			b.WriteString(strings.Repeat("-", widths[i]) + "  ")
		}
		b.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Bar renders one horizontal ASCII bar scaled so that max fills width.
func Bar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		value, max = 0, 1
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// BarChart is a labeled horizontal bar chart.
type BarChart struct {
	Title  string
	Width  int // bar width in characters (default 40)
	labels []string
	values []float64
	notes  []string
}

// Add appends one bar with an optional note rendered after the value.
func (c *BarChart) Add(label string, value float64, note string) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
	c.notes = append(c.notes, note)
}

// Render writes the chart.
func (c *BarChart) Render(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	max := 0.0
	labelW := 0
	for i, v := range c.values {
		if v > max {
			max = v
		}
		if len(c.labels[i]) > labelW {
			labelW = len(c.labels[i])
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i := range c.values {
		fmt.Fprintf(&b, "%-*s |%s| %.4g", labelW, c.labels[i], Bar(c.values[i], max, width), c.values[i])
		if c.notes[i] != "" {
			fmt.Fprintf(&b, "  %s", c.notes[i])
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Stacked renders a 100%-stacked breakdown line (e.g. fault-effect mixes):
// each segment gets a share of width proportional to its value.
func Stacked(segments []float64, chars []byte, width int) string {
	total := 0.0
	for _, s := range segments {
		total += s
	}
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	var b strings.Builder
	used := 0
	for i, s := range segments {
		n := int(s / total * float64(width))
		if i == len(segments)-1 {
			n = width - used
		}
		if n < 0 {
			n = 0
		}
		ch := byte('?')
		if i < len(chars) {
			ch = chars[i]
		}
		b.Write(bytesRepeat(ch, n))
		used += n
	}
	return b.String()
}

func bytesRepeat(ch byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = ch
	}
	return out
}

// Pct formats a ratio as a percentage string.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
