package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("a", "1")
	tb.AddRowf("bee", 2.5)
	s := tb.String()
	for _, want := range []string{"demo", "name", "value", "a", "bee", "2.5", "----"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestTableMarkdownAndCSV(t *testing.T) {
	tb := NewTable("m", "x", "y")
	tb.AddRow("a,b", "2")
	md := tb.Markdown()
	if !strings.Contains(md, "| x | y |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("bad markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"a,b",2`) {
		t.Fatalf("bad csv quoting:\n%s", csv)
	}
}

func TestAddRowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on row width mismatch")
		}
	}()
	NewTable("", "a", "b").AddRow("only one")
}

func TestAddRowfTypes(t *testing.T) {
	tb := NewTable("", "a", "b", "c", "d")
	tb.AddRowf("s", 1.5, 7, int64(9))
	row := tb.Rows[0]
	if row[0] != "s" || row[1] != "1.5" || row[2] != "7" || row[3] != "9" {
		t.Fatalf("AddRowf row = %v", row)
	}
}

func TestMeans(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty inputs should give 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean broken")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		0:       "0s",
		1.5e-9:  "1.5ns",
		2.5e-6:  "2.5µs",
		3.25e-3: "3.25ms",
		1.75:    "1.75s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		17:        "17B",
		2048:      "2KiB",
		5 << 20:   "5MiB",
		3 << 30:   "3GiB",
		249513376: "238MiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("JainIndex(nil) = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero input = %v", got)
	}
	if got := JainIndex([]float64{3, 3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal allocations = %v, want 1", got)
	}
	// One tenant hogging everything approaches 1/n.
	if got := JainIndex([]float64{100, 1e-9, 1e-9, 1e-9}); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("dominated allocations = %v, want ~0.25", got)
	}
	// Known closed form: {1,2,3} -> 36/(3*14).
	if got, want := JainIndex([]float64{1, 2, 3}), 36.0/42.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("JainIndex({1,2,3}) = %v, want %v", got, want)
	}
}

func TestMax(t *testing.T) {
	if got := Max(nil); got != 0 {
		t.Fatalf("Max(nil) = %v", got)
	}
	if got := Max([]float64{-3, 2.5, 1}); got != 2.5 {
		t.Fatalf("Max = %v", got)
	}
}
