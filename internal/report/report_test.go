package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"T\n", "a", "bb", "longer", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1", "2,3") // comma needs quoting
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,\"2,3\"\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####....." {
		t.Errorf("Bar = %q", got)
	}
	if got := Bar(20, 10, 10); got != "##########" {
		t.Errorf("clamped Bar = %q", got)
	}
	if got := Bar(1, 0, 4); got != "...." {
		t.Errorf("zero-max Bar = %q", got)
	}
	if got := Bar(-1, 10, 4); got != "...." {
		t.Errorf("negative Bar = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	c := &BarChart{Title: "chart", Width: 10}
	c.Add("one", 1, "")
	c.Add("two", 2, "note")
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "chart") || !strings.Contains(out, "note") {
		t.Errorf("chart output:\n%s", out)
	}
	if !strings.Contains(out, "##########") { // the max bar is full width
		t.Errorf("max bar not full width:\n%s", out)
	}
}

func TestStacked(t *testing.T) {
	s := Stacked([]float64{1, 1}, []byte{'A', 'B'}, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	if strings.Count(s, "A") != 5 || strings.Count(s, "B") != 5 {
		t.Errorf("stacked = %q", s)
	}
	if got := Stacked(nil, nil, 5); got != "     " {
		t.Errorf("empty stacked = %q", got)
	}
	// Rounding: segments always fill exactly width.
	s = Stacked([]float64{1, 1, 1}, []byte{'A', 'B', 'C'}, 10)
	if len(s) != 10 {
		t.Errorf("rounded stacked len = %d", len(s))
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.1234) != "12.34%" {
		t.Errorf("Pct = %s", Pct(0.1234))
	}
}
