package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// tinyOpts keeps experiment tests fast: two benchmarks, small windows.
func tinyOpts() Options {
	return Options{
		Warmup:     100_000,
		Measure:    300_000,
		Benchmarks: []string{"voter", "kafka"},
	}
}

func checkReport(t *testing.T, rep *Report, id string, wantRows int) {
	t.Helper()
	if rep.ID != id {
		t.Errorf("ID = %q, want %q", rep.ID, id)
	}
	if rep.Title == "" {
		t.Error("empty title")
	}
	out := rep.String()
	if !strings.Contains(out, id) {
		t.Errorf("rendering lacks id:\n%s", out)
	}
	lines := strings.Count(rep.Table.String(), "\n")
	// header + separator + rows
	if lines < 2+wantRows {
		t.Errorf("table has %d lines, want >= %d:\n%s", lines, 2+wantRows, rep.Table)
	}
}

func TestTable1(t *testing.T) {
	rep := Table1()
	checkReport(t, rep, "table1", 10)
	if !strings.Contains(rep.Table.String(), "12.") {
		t.Error("SBB budget missing from config table")
	}
}

func TestTable2(t *testing.T) {
	rep, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "table2", 16)
	for _, want := range []string{"cassandra", "verilator-bolted", "bolt", "interleaved"} {
		if !strings.Contains(rep.Table.String(), want) {
			t.Errorf("table2 lacks %q", want)
		}
	}
}

func TestFig1(t *testing.T) {
	rep, err := Fig1(tinyOpts(), []int{2048, 8192})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig1", 2)
	if len(rep.Notes) == 0 {
		t.Error("fig1 should note the paper's 75% comparison")
	}
}

func TestFig6(t *testing.T) {
	rep, err := Fig6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig6", 2)
}

func TestFig13(t *testing.T) {
	rep, err := Fig13(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig13", 2)
}

func TestFig14ShapesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	o := tinyOpts()
	o.Benchmarks = []string{"voter", "sibench"}
	rep, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig14", 3)
	// Parse the geomean row: tail must beat head (paper Section 6.1),
	// and the combined configuration must provide a positive gain.
	rows := strings.Split(strings.TrimRight(rep.Table.String(), "\n"), "\n")
	last := strings.Fields(rows[len(rows)-1])
	if last[0] != "GEOMEAN" {
		t.Fatalf("last row %v", last)
	}
	head := parseSigned(t, last[1])
	tail := parseSigned(t, last[2])
	both := parseSigned(t, last[3])
	if both <= 0 {
		t.Errorf("combined Skia gain %.2f%% not positive on high-miss benchmarks", both)
	}
	// Tail-only decoding must deliver a solid fraction of the benefit on
	// its own (paper Section 6.1). The strict tail>head ordering is a
	// full-suite, full-window property that nothing checks yet (see the
	// executable paper claims item in ROADMAP.md); at this test's micro
	// scale the two are within noise of each other.
	if tail <= 0 {
		t.Errorf("tail-only gain %.2f%% not positive", tail)
	}
	if head <= 0 {
		t.Errorf("head-only gain %.2f%% not positive on call/return-heavy benchmarks", head)
	}
}

func parseSigned(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

func TestFig15(t *testing.T) {
	rep, err := Fig15(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig15", 2)
}

func TestFig18(t *testing.T) {
	rep, err := Fig18(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "fig18", 2)
}

func TestBolt(t *testing.T) {
	if testing.Short() {
		t.Skip("four full-size runs")
	}
	rep, err := Bolt(Options{Warmup: 100_000, Measure: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "bolt", 2)
	if !strings.Contains(rep.Table.String(), "verilator-bolted") {
		t.Error("bolted variant missing")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if len(o.benchmarks()) != 16 {
		t.Errorf("default benchmark list has %d entries", len(o.benchmarks()))
	}
	o.Benchmarks = []string{"voter"}
	if len(o.benchmarks()) != 1 {
		t.Error("override ignored")
	}
}

func TestPctAndFormatHelpers(t *testing.T) {
	if pct(0.0564) != "5.64%" {
		t.Errorf("pct = %q", pct(0.0564))
	}
	if f3(1.23456) != "1.235" || f2(1.23456) != "1.23" {
		t.Error("float formatting broken")
	}
}
