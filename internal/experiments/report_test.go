package experiments

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestReportJSONRoundTrip marshals a freshly simulated report, decodes
// it, and requires deep equality: nothing the envelope carries may be
// lost or coerced on the way through disk.
func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Fig15(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	rep.Meta.GitDescribe = "v0-test"
	rep.Meta.GeneratedAt = "2026-08-06T00:00:00Z"
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != rep.ID || back.Title != rep.Title {
		t.Errorf("identity changed: %q/%q", back.ID, back.Title)
	}
	if !reflect.DeepEqual(back.Notes, rep.Notes) {
		t.Errorf("notes changed: %v != %v", back.Notes, rep.Notes)
	}
	if !reflect.DeepEqual(back.Meta, rep.Meta) {
		t.Errorf("meta changed:\n%+v\n!=\n%+v", back.Meta, rep.Meta)
	}
	if !reflect.DeepEqual(back.Table.Columns(), rep.Table.Columns()) {
		t.Errorf("columns changed: %+v != %+v", back.Table.Columns(), rep.Table.Columns())
	}
	if back.Table.NumRows() != rep.Table.NumRows() {
		t.Fatalf("row count changed: %d != %d", back.Table.NumRows(), rep.Table.NumRows())
	}
	for i := 0; i < rep.Table.NumRows(); i++ {
		if !reflect.DeepEqual(back.Table.Row(i), rep.Table.Row(i)) {
			t.Errorf("row %d changed: %+v != %+v", i, back.Table.Row(i), rep.Table.Row(i))
		}
	}
	if back.String() != rep.String() {
		t.Error("plain-text rendering changed across round trip")
	}
}

// TestReportMetaStamped checks the run-metadata envelope a harness
// fills: benchmarks with seeds, effective windows, config labels, and
// the runner's throughput counters.
func TestReportMetaStamped(t *testing.T) {
	o := tinyOpts()
	rep, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Meta
	if len(m.Benchmarks) != 2 || m.Benchmarks[0].Name != "voter" || m.Benchmarks[0].Seed == 0 {
		t.Errorf("benchmarks = %+v", m.Benchmarks)
	}
	if m.WarmupInstructions != o.Warmup || m.MeasureInstructions != o.Measure {
		t.Errorf("windows = %d/%d", m.WarmupInstructions, m.MeasureInstructions)
	}
	if !reflect.DeepEqual(m.ConfigLabels, []string{"baseline", "both", "head", "tail"}) {
		t.Errorf("config labels = %v", m.ConfigLabels)
	}
	if m.Sim == nil {
		t.Fatal("no sim stats")
	}
	// 2 benchmarks x 4 variants.
	if m.Sim.Runs != 8 || m.Sim.Instructions == 0 || m.Sim.InstructionsPerSec <= 0 {
		t.Errorf("sim stats = %+v", m.Sim)
	}
	// Defaults resolve when the options leave windows at zero.
	var o2 Options
	rep2 := &Report{ID: "x", Table: stats.NewTable("a")}
	o2.stamp(rep2, nil, nil, nil)
	if rep2.Meta.WarmupInstructions == 0 || rep2.Meta.MeasureInstructions == 0 {
		t.Errorf("default windows not resolved: %+v", rep2.Meta)
	}
}

// TestReportSchemaVersionChecked ensures decodes of other versions
// fail loudly instead of silently misreading.
func TestReportSchemaVersionChecked(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"schema_version":99,"id":"x","title":"t","meta":{},"table":{"columns":[],"rows":[]}}`)); err == nil {
		t.Error("future schema version accepted")
	}
	if _, err := DecodeReport([]byte(`{"schema_version":1,"id":"x","title":"t","meta":{}}`)); err == nil {
		t.Error("report without table accepted")
	}
}

// TestGoldenReportStable decodes the committed golden report and
// re-marshals it: the bytes must match exactly, pinning the schema.
// Regenerate with:
//
//	go run ./cmd/skiaexp -exp fig14 -json -benchmarks voter,kafka \
//	    -warmup 100000 -measure 300000 -out /tmp/r
//	cp /tmp/r/fig14.json internal/experiments/testdata/fig14.golden.json
//
// (and update the example in EXPERIMENTS.md to match).
func TestGoldenReportStable(t *testing.T) {
	golden, err := os.ReadFile("testdata/fig14.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DecodeReport(golden)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig14" || rep.Table.NumRows() != 3 {
		t.Fatalf("unexpected golden content: id=%q rows=%d", rep.ID, rep.Table.NumRows())
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if string(out) != string(golden) {
		t.Errorf("golden report does not re-marshal byte-identically;\nschema drifted — regenerate testdata/fig14.golden.json and update EXPERIMENTS.md\n--- got ---\n%s", out)
	}
}

// TestDocumentedExampleMatchesMarshaller holds EXPERIMENTS.md to its
// word: the fig14.json example in the "Results schema" section must be
// byte-identical to the golden file, which TestGoldenReportStable pins
// to the marshaller's actual output.
func TestDocumentedExampleMatchesMarshaller(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	marker := "### Example: fig14.json"
	i := strings.Index(string(doc), marker)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md lacks the %q section", marker)
	}
	rest := string(doc)[i:]
	start := strings.Index(rest, "```json\n")
	if start < 0 {
		t.Fatal("no fenced json block after the example marker")
	}
	rest = rest[start+len("```json\n"):]
	end := strings.Index(rest, "```")
	if end < 0 {
		t.Fatal("unterminated json block")
	}
	example := rest[:end]
	golden, err := os.ReadFile("testdata/fig14.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if example != string(golden) {
		t.Error("EXPERIMENTS.md example differs from testdata/fig14.golden.json; keep them in sync")
	}
	if _, err := DecodeReport([]byte(example)); err != nil {
		t.Errorf("documented example does not decode: %v", err)
	}
}

// TestReportDecodesV1AndUnknownFields pins the compatibility promise:
// a schema-v1 envelope (no intervals, possibly carrying fields this
// build has never heard of) still decodes, so old goldens keep
// diffing against v3 reports.
func TestReportDecodesV1AndUnknownFields(t *testing.T) {
	v1 := `{
  "schema_version": 1,
  "id": "fig14",
  "title": "legacy",
  "meta": {"warmup_instructions": 100, "some_future_field": {"x": 1}},
  "table": {"columns": [{"name": "benchmark"}, {"name": "ipc", "unit": "ipc"}],
            "rows": [[{"kind": "str", "text": "voter"},
                      {"kind": "num", "text": "2.40", "value": 2.4}]]},
  "extra_top_level": [1, 2, 3]
}`
	rep, err := DecodeReport([]byte(v1))
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if rep.ID != "fig14" || rep.Table.NumRows() != 1 {
		t.Errorf("v1 content mangled: id=%q rows=%d", rep.ID, rep.Table.NumRows())
	}
	if rep.Intervals != nil {
		t.Errorf("v1 report grew intervals: %+v", rep.Intervals)
	}
	if rep.Meta.WarmupInstructions != 100 {
		t.Errorf("meta dropped: %+v", rep.Meta)
	}
}

// TestReportDecodesV2 pins the v2 half of the promise: an intervals-
// bearing v2 envelope decodes with its intervals intact and no
// attribution section invented.
func TestReportDecodesV2(t *testing.T) {
	v2 := `{
  "schema_version": 2,
  "id": "fig15",
  "title": "v2 report",
  "meta": {},
  "table": {"columns": [{"name": "benchmark"}], "rows": [[{"kind": "str", "text": "voter"}]]},
  "intervals": [{"benchmark": "voter", "label": "skia", "summary": {"count": 3, "ipc_mean": 2.1}}]
}`
	rep, err := DecodeReport([]byte(v2))
	if err != nil {
		t.Fatalf("v2 envelope rejected: %v", err)
	}
	if len(rep.Intervals) != 1 || rep.Intervals[0].Summary.Count != 3 {
		t.Errorf("v2 intervals mangled: %+v", rep.Intervals)
	}
	if rep.Attribution != nil {
		t.Errorf("v2 report grew attribution: %+v", rep.Attribution)
	}
}

// TestReportAttributionRoundTrip runs a harness with attribution on
// and requires the per-spec summaries to survive the JSON trip, and
// the section to stay absent entirely when disabled.
func TestReportAttributionRoundTrip(t *testing.T) {
	o := tinyOpts()
	o.Attrib = true
	rep, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	// 2 benchmarks x 4 variants, sorted by benchmark then label.
	if len(rep.Attribution) != 8 {
		t.Fatalf("attribution summaries = %d, want 8", len(rep.Attribution))
	}
	for i := 1; i < len(rep.Attribution); i++ {
		a, b := rep.Attribution[i-1], rep.Attribution[i]
		if a.Benchmark > b.Benchmark || (a.Benchmark == b.Benchmark && a.Label > b.Label) {
			t.Errorf("summaries unsorted at %d: %+v > %+v", i, a, b)
		}
	}
	for _, s := range rep.Attribution {
		var sum uint64
		for _, c := range s.Summary.Causes {
			sum += c.Count
		}
		if sum != s.Summary.BTBMisses {
			t.Errorf("%s/%s: causes sum %d != total %d",
				s.Benchmark, s.Label, sum, s.Summary.BTBMisses)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Attribution, rep.Attribution) {
		t.Errorf("attribution changed across round trip:\n%+v\n!=\n%+v", back.Attribution, rep.Attribution)
	}
	rep2, err := Fig15(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Attribution) != 0 {
		t.Errorf("attribution stamped while disabled: %+v", rep2.Attribution)
	}
	if data, err := json.Marshal(rep2); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(data), `"attribution"`) {
		t.Error("disabled report still emits an attribution key")
	}
}

// TestReportIntervalsRoundTrip runs a harness with interval collection
// on and requires the per-spec summaries to survive the JSON trip.
func TestReportIntervalsRoundTrip(t *testing.T) {
	o := tinyOpts()
	o.Interval = 100_000
	rep, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Intervals) == 0 {
		t.Fatal("no interval summaries stamped")
	}
	// 2 benchmarks x 4 variants, sorted by benchmark then label.
	if len(rep.Intervals) != 8 {
		t.Errorf("summaries = %d, want 8", len(rep.Intervals))
	}
	for i := 1; i < len(rep.Intervals); i++ {
		a, b := rep.Intervals[i-1], rep.Intervals[i]
		if a.Benchmark > b.Benchmark || (a.Benchmark == b.Benchmark && a.Label > b.Label) {
			t.Errorf("summaries unsorted at %d: %+v > %+v", i, a, b)
		}
	}
	for _, s := range rep.Intervals {
		if s.Summary.Count == 0 || s.Summary.IPCMean <= 0 {
			t.Errorf("empty summary: %+v", s)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Intervals, rep.Intervals) {
		t.Errorf("intervals changed across round trip:\n%+v\n!=\n%+v", back.Intervals, rep.Intervals)
	}
	// Without the option the section stays absent entirely.
	rep2, err := Fig15(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Intervals) != 0 {
		t.Errorf("intervals stamped while disabled: %+v", rep2.Intervals)
	}
	if data, err := json.Marshal(rep2); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(data), `"intervals"`) {
		t.Error("disabled report still emits an intervals key")
	}
}
