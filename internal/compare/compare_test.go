package compare

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attrib"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mkReport builds a small two-row report in the shape the harnesses
// emit: a label column, an IPC column, and a speedup column.
func mkReport(id string, ipc, gain float64) *experiments.Report {
	tb := stats.NewTable("benchmark", "ipc", "gain").
		SetUnits(stats.UnitNone, stats.UnitIPC, stats.UnitSpeedup)
	tb.AddCells(stats.Str("voter"), stats.Num(ipc, "x"), stats.Num(gain, "y"))
	tb.AddCells(stats.Str("kafka"), stats.Num(1.5, "1.5"), stats.Num(0.01, "1%"))
	return &experiments.Report{ID: id, Title: "test " + id, Table: tb}
}

func writeDir(t *testing.T, reps ...*experiments.Report) string {
	t.Helper()
	dir := t.TempDir()
	for _, r := range reps {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, r.ID+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A manifest must be skipped, not parsed as a report.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestIdenticalDirsPass(t *testing.T) {
	dir := writeDir(t, mkReport("fig14", 2.4, 0.05), mkReport("bolt", 2.0, 0.10))
	a, err := LoadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Diff(a, b, Options{})
	if res.Failed() {
		t.Errorf("identical dirs failed:\n%s", res)
	}
	// 2 reports x 2 rows x 2 numeric columns.
	if res.Compared != 8 {
		t.Errorf("Compared = %d", res.Compared)
	}
}

func TestToleranceExceedingDeltaFails(t *testing.T) {
	a := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	// 10% IPC delta against the default 5% relative tolerance.
	b := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.64, 0.05)}
	res := Diff(a, b, Options{})
	if !res.Failed() || len(res.Findings) != 1 {
		t.Fatalf("10%% delta not flagged:\n%s", res)
	}
	f := res.Findings[0]
	if f.Column != "ipc" || f.SignFlip || math.Abs(f.Rel-0.1) > 1e-9 {
		t.Errorf("finding = %+v", f)
	}
	// The same delta passes under a looser tolerance.
	if res := Diff(a, b, Options{RTol: 0.2}); res.Failed() {
		t.Errorf("20%% tolerance still failed:\n%s", res)
	}
}

func TestSpeedupSignFlipFails(t *testing.T) {
	a := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	b := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, -0.05)}
	res := Diff(a, b, Options{})
	if !res.Failed() || len(res.Findings) != 1 || !res.Findings[0].SignFlip {
		t.Fatalf("sign flip not flagged:\n%s", res)
	}
	// A flip inside the noise floor does not count as a flip, but the
	// delta rule still applies: widen RTol so it alone is in play.
	a["fig14"] = mkReport("fig14", 2.4, 0.0002)
	b["fig14"] = mkReport("fig14", 2.4, -0.0002)
	res = Diff(a, b, Options{RTol: 1000})
	for _, f := range res.Findings {
		if f.SignFlip {
			t.Errorf("noise-floor flip flagged: %+v", f)
		}
	}
}

func TestMissingExperimentRowColumnFail(t *testing.T) {
	a := map[string]*experiments.Report{
		"fig14": mkReport("fig14", 2.4, 0.05),
		"bolt":  mkReport("bolt", 2.0, 0.10),
	}
	b := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	res := Diff(a, b, Options{})
	if !res.Failed() || len(res.Mismatches) != 1 {
		t.Fatalf("missing experiment not flagged:\n%s", res)
	}
	// Extra experiments in the new set warn but do not fail.
	res = Diff(b, a, Options{})
	if res.Failed() || len(res.Warnings) != 1 {
		t.Errorf("extra experiment should warn only:\n%s", res)
	}

	// Missing row.
	short := mkReport("fig14", 2.4, 0.05)
	tb := stats.NewTable("benchmark", "ipc", "gain").
		SetUnits(stats.UnitNone, stats.UnitIPC, stats.UnitSpeedup)
	tb.AddCells(stats.Str("voter"), stats.Num(2.4, "x"), stats.Num(0.05, "y"))
	res = Diff(map[string]*experiments.Report{"fig14": short},
		map[string]*experiments.Report{"fig14": {ID: "fig14", Title: "t", Table: tb}}, Options{})
	if !res.Failed() || !strings.Contains(res.String(), "row [kafka] missing") {
		t.Errorf("missing row not flagged:\n%s", res)
	}

	// Missing column.
	tb2 := stats.NewTable("benchmark", "ipc").SetUnits(stats.UnitNone, stats.UnitIPC)
	tb2.AddCells(stats.Str("voter"), stats.Num(2.4, "x"))
	tb2.AddCells(stats.Str("kafka"), stats.Num(1.5, "1.5"))
	res = Diff(map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)},
		map[string]*experiments.Report{"fig14": {ID: "fig14", Title: "t", Table: tb2}}, Options{})
	if !res.Failed() || !strings.Contains(res.String(), `column "gain" missing`) {
		t.Errorf("missing column not flagged:\n%s", res)
	}
}

func TestLoadPathSingleFileAndErrors(t *testing.T) {
	dir := writeDir(t, mkReport("fig14", 2.4, 0.05))
	reps, err := LoadPath(filepath.Join(dir, "fig14.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps["fig14"] == nil {
		t.Errorf("reps = %+v", reps)
	}
	if _, err := LoadPath(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing path accepted")
	}
	empty := t.TempDir()
	if _, err := LoadPath(empty); err == nil {
		t.Error("empty dir accepted")
	}
	// Duplicate IDs across files must be rejected.
	data, _ := json.Marshal(mkReport("fig14", 2.4, 0.05))
	if err := os.WriteFile(filepath.Join(dir, "copy.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPath(dir); err == nil {
		t.Error("duplicate experiment IDs accepted")
	}
}

func TestRowsPairByLabelNotPosition(t *testing.T) {
	// Same rows, different order: must still pass.
	a := mkReport("fig14", 2.4, 0.05)
	tb := stats.NewTable("benchmark", "ipc", "gain").
		SetUnits(stats.UnitNone, stats.UnitIPC, stats.UnitSpeedup)
	tb.AddCells(stats.Str("kafka"), stats.Num(1.5, "1.5"), stats.Num(0.01, "1%"))
	tb.AddCells(stats.Str("voter"), stats.Num(2.4, "x"), stats.Num(0.05, "y"))
	b := &experiments.Report{ID: "fig14", Title: "t", Table: tb}
	res := Diff(map[string]*experiments.Report{"fig14": a},
		map[string]*experiments.Report{"fig14": b}, Options{})
	if res.Failed() {
		t.Errorf("reordered rows failed:\n%s", res)
	}
}

// mkLabelled builds a one-column speedup report whose rows carry the
// given labels and values.
func mkLabelled(labels []string, vals []float64) map[string]*experiments.Report {
	tb := stats.NewTable("label", "v").SetUnits(stats.UnitNone, stats.UnitSpeedup)
	for i, l := range labels {
		tb.AddCells(stats.Str(l), stats.Num(vals[i], ""))
	}
	return map[string]*experiments.Report{"x": {ID: "x", Title: "t", Table: tb}}
}

// TestRepeatedLabelsPairByOccurrence: a repeated label is told apart by
// its occurrence, not by a "#n" suffix on the label, so a real label
// that reads "a#1" pairs with itself and not with the second "a".
func TestRepeatedLabelsPairByOccurrence(t *testing.T) {
	labels := []string{"a", "a", "a#1"}
	base := mkLabelled(labels, []float64{1, 2, -3})
	if res := Diff(base, mkLabelled(labels, []float64{1, 2, -3}), Options{}); res.Failed() {
		t.Errorf("report diffed against itself failed:\n%s", res)
	}
	// A flip in the second "a" row is reported with that row's values.
	res := Diff(base, mkLabelled(labels, []float64{1, -2, -3}), Options{})
	if len(res.Findings) != 1 || len(res.Mismatches) != 0 {
		t.Fatalf("want exactly one finding:\n%s", res)
	}
	if f := res.Findings[0]; !f.SignFlip || f.Old != 2 || f.New != -2 {
		t.Errorf("finding = %+v, want the second a row flipping 2 -> -2", f)
	}
}

// TestRepeatedKeysDiffCleanAgainstThemselves: repeated column names,
// section specs whose "bench/label" spellings coincide, and repeated
// metric names each pair with their own copy, so a report always
// diffs clean against itself.
func TestRepeatedKeysDiffCleanAgainstThemselves(t *testing.T) {
	tb := stats.NewTable("label", "v", "v").
		SetUnits(stats.UnitNone, stats.UnitSpeedup, stats.UnitSpeedup)
	tb.AddCells(stats.Str("a"), stats.Num(1, ""), stats.Num(-1, ""))
	metric := func(mean float64) sim.SampleSummary {
		return sim.SampleSummary{Metrics: []sim.MetricCI{{Name: "ipc", Mean: mean}, {Name: "ipc", Mean: 2 * mean}}}
	}
	rep := &experiments.Report{ID: "x", Title: "t", Table: tb,
		Intervals: []sim.SpecIntervals{
			{Benchmark: "a/b", Summary: metrics.Summary{IPCMean: 1}},
			{Benchmark: "a", Label: "b", Summary: metrics.Summary{IPCMean: 2}},
		},
		Sampling: []sim.SpecSampling{
			{Benchmark: "a", Summary: metric(1)},
			{Benchmark: "a", Summary: metric(3)},
		},
	}
	set := map[string]*experiments.Report{"x": rep}
	if res := Diff(set, set, Options{}); res.Failed() || len(res.Warnings) != 0 {
		t.Errorf("report diffed against itself failed:\n%s", res)
	}
}

// TestV2ReportDiffsAgainstV1Golden writes the same table as a
// hand-built schema-v1 file (with an unknown field, as an older tool
// could have left behind) and as a current-schema report, and requires
// the diff to be clean: schema evolution must not break regression
// runs against old goldens.
func TestV2ReportDiffsAgainstV1Golden(t *testing.T) {
	newDir := writeDir(t, mkReport("fig14", 2.4, 0.05))
	data, err := os.ReadFile(filepath.Join(newDir, "fig14.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["schema_version"] = json.RawMessage("1")
	delete(m, "intervals")
	m["legacy_only_field"] = json.RawMessage(`"kept by an older tool"`)
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	oldDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(oldDir, "fig14.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := LoadPath(oldDir)
	if err != nil {
		t.Fatalf("v1 golden with unknown field failed to load: %v", err)
	}
	b, err := LoadPath(newDir)
	if err != nil {
		t.Fatal(err)
	}
	res := Diff(a, b, Options{})
	if res.Failed() {
		t.Errorf("v1 golden vs v2 report failed:\n%s", res)
	}
	if res.Compared == 0 {
		t.Error("nothing compared")
	}
}

// mkIVReport attaches an intervals section to a base report.
func mkIVReport(ipcMean, coverage float64) *experiments.Report {
	r := mkReport("fig14", 2.4, 0.05)
	r.Intervals = []sim.SpecIntervals{{
		Benchmark: "voter", Label: "skia",
		Summary: metrics.Summary{Every: 1000, Count: 3, IPCMean: ipcMean, SBBCoverage: coverage},
	}}
	return r
}

func TestIntervalSummaryDrift(t *testing.T) {
	a := map[string]*experiments.Report{"fig14": mkIVReport(2.0, 0.60)}

	// Within the default 5% relative tolerance: clean.
	b := map[string]*experiments.Report{"fig14": mkIVReport(2.04, 0.61)}
	if res := Diff(a, b, Options{}); res.Failed() {
		t.Errorf("within-tolerance interval drift failed:\n%s", res)
	}

	// 10% IPC-mean drift against the default 5%: one finding naming
	// the intervals column.
	b = map[string]*experiments.Report{"fig14": mkIVReport(2.2, 0.60)}
	res := Diff(a, b, Options{})
	if !res.Failed() || len(res.Findings) != 1 {
		t.Fatalf("IPC-mean drift not flagged:\n%s", res)
	}
	if res.Findings[0].Column != "intervals.ipc_mean" {
		t.Errorf("Column = %q", res.Findings[0].Column)
	}

	// Coverage collapse is caught by the same bound.
	b = map[string]*experiments.Report{"fig14": mkIVReport(2.0, 0.30)}
	if res := Diff(a, b, Options{}); len(res.Findings) != 1 ||
		res.Findings[0].Column != "intervals.sbb_coverage" {
		t.Errorf("coverage drift not flagged:\n%s", res)
	}

	// A custom IVRTol loosens only the interval bound.
	if res := Diff(a, b, Options{IVRTol: 0.6}); res.Failed() {
		t.Errorf("IVRTol=0.6 still flagged 50%% coverage drift:\n%s", res)
	}

	// Section present in base, absent from new: a gating mismatch.
	b = map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	if res := Diff(a, b, Options{}); len(res.Mismatches) != 1 {
		t.Errorf("dropped intervals section not a mismatch:\n%s", res)
	}

	// Section only in new: a note, not a failure.
	if res := Diff(b, a, Options{}); res.Failed() || len(res.Warnings) != 1 {
		t.Errorf("added intervals section should only warn:\n%s", res)
	}
}

// mkAttribReport attaches an attribution section with a two-cause,
// one-stall summary whose shares are the test's inputs.
func mkAttribReport(sbbHit, notResident float64) *experiments.Report {
	r := mkReport("fig14", 2.4, 0.05)
	r.Attribution = []sim.SpecAttribution{{
		Benchmark: "voter", Label: "skia",
		Summary: attrib.Summary{
			BTBMisses: 100, StallCycles: 50, ShadowResidentShare: sbbHit,
			Causes: []attrib.CauseCount{
				{Cause: "sbb-hit", Count: uint64(sbbHit * 100), Share: sbbHit},
				{Cause: "not-resident", Count: uint64(notResident * 100), Share: notResident},
			},
			Stalls: []attrib.StallCount{{Kind: "ftq-empty", Count: 50, Share: 1}},
		},
	}}
	return r
}

func TestAttributionShareDrift(t *testing.T) {
	a := map[string]*experiments.Report{"fig14": mkAttribReport(0.70, 0.30)}

	// Shares moved two points: inside the default five-point bound.
	b := map[string]*experiments.Report{"fig14": mkAttribReport(0.72, 0.28)}
	if res := Diff(a, b, Options{}); res.Failed() {
		t.Errorf("two-point share drift failed:\n%s", res)
	}

	// Ten points is a mix shift: shadow_resident_share and both cause
	// shares trip the absolute bound.
	b = map[string]*experiments.Report{"fig14": mkAttribReport(0.60, 0.40)}
	res := Diff(a, b, Options{})
	if len(res.Findings) != 3 {
		t.Fatalf("ten-point drift findings = %d:\n%s", len(res.Findings), res)
	}
	cols := map[string]bool{}
	for _, f := range res.Findings {
		cols[f.Column] = true
		if f.Unit != "share" {
			t.Errorf("%s: Unit = %q", f.Column, f.Unit)
		}
	}
	for _, want := range []string{"attrib.shadow_resident_share", "attrib.cause.sbb-hit", "attrib.cause.not-resident"} {
		if !cols[want] {
			t.Errorf("missing finding for %s (got %v)", want, cols)
		}
	}

	// The absolute bound is tunable independently of the table rtol.
	if res := Diff(a, b, Options{AttribTol: 0.15}); res.Failed() {
		t.Errorf("AttribTol=0.15 still flagged ten-point drift:\n%s", res)
	}

	// Attribution dropped entirely: mismatch. Added: warning only.
	plain := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	if res := Diff(a, plain, Options{}); len(res.Mismatches) != 1 {
		t.Errorf("dropped attribution section not a mismatch:\n%s", res)
	}
	if res := Diff(plain, a, Options{}); res.Failed() || len(res.Warnings) != 1 {
		t.Errorf("added attribution section should only warn:\n%s", res)
	}
}

// TestAttributionSectionsSurviveFileRoundTrip diffs attribution-bearing
// reports through the same write/LoadPath path skiacmp uses, proving
// the v3 envelope's optional sections reach the comparator from disk.
func TestAttributionSectionsSurviveFileRoundTrip(t *testing.T) {
	rep := mkAttribReport(0.70, 0.30)
	rep.Intervals = mkIVReport(2.0, 0.6).Intervals
	dir := writeDir(t, rep)
	a, err := LoadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	drifted := mkAttribReport(0.50, 0.50)
	drifted.Intervals = mkIVReport(1.0, 0.6).Intervals
	b, err := LoadPath(writeDir(t, drifted))
	if err != nil {
		t.Fatal(err)
	}
	// Self-diff through disk: clean.
	if res := Diff(a, a, Options{}); res.Failed() {
		t.Errorf("file round-trip self-diff failed:\n%s", res)
	}
	// Drifted copy: both sections report findings from the loaded form.
	res := Diff(a, b, Options{})
	var ivHit, atHit bool
	for _, f := range res.Findings {
		switch f.Column {
		case "intervals.ipc_mean":
			ivHit = true
		case "attrib.shadow_resident_share":
			atHit = true
		}
	}
	if !ivHit || !atHit {
		t.Errorf("loaded sections missing findings (iv=%v at=%v):\n%s", ivHit, atHit, res)
	}
}

// mkSampled attaches a sampling section to a report: one spec with the
// given ipc mean and CI (exact echoes use ci 0).
func mkSampled(id string, mean, ci float64, exact bool) *experiments.Report {
	rep := mkReport(id, 2.4, 0.05)
	rep.Sampling = []sim.SpecSampling{{
		Benchmark: "voter", Label: "skia",
		Summary: sim.SampleSummary{
			Exact: exact,
			Metrics: []sim.MetricCI{
				{Name: "ipc", Mean: mean, CI: ci},
				{Name: "cond_mpki", Mean: 8.5, CI: 0.4},
			},
		},
	}}
	return rep
}

// TestSamplingSectionDrift checks the ordinary-mode sampling diff: a
// drifted point estimate fails under RTol, a matching one passes, and
// a vanished section is a mismatch.
func TestSamplingSectionDrift(t *testing.T) {
	base := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.40, 0.05, false)}
	same := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.41, 0.08, false)}
	if res := Diff(base, same, Options{}); res.Failed() {
		t.Errorf("near-identical sampling failed:\n%s", res)
	}
	drift := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.90, 0.05, false)}
	res := Diff(base, drift, Options{})
	if !res.Failed() {
		t.Fatalf("20%% sampled-ipc drift passed:\n%s", res)
	}
	found := false
	for _, f := range res.Findings {
		if f.Column == "sampling.ipc" {
			found = true
		}
	}
	if !found {
		t.Errorf("no sampling.ipc finding:\n%s", res)
	}
	gone := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	if res := Diff(base, gone, Options{}); len(res.Mismatches) == 0 {
		t.Errorf("vanished sampling section not a mismatch:\n%s", res)
	}
}

// TestSampleCIGate checks sampled-validation mode: the sampled value
// passes while the exact reference sits inside mean±(CI+slack), fails
// outside it, and table cells are ignored entirely (the two reports'
// tables differ wildly without failing the gate).
func TestSampleCIGate(t *testing.T) {
	exact := mkSampled("fig14", 2.40, 0, true)
	exact.Table = stats.NewTable("benchmark", "other")
	base := map[string]*experiments.Report{"fig14": exact}

	// |2.52-2.40| = 0.12 <= CI 0.02 + atol 0.01 + rtol 0.05*2.40 = 0.15.
	pass := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.52, 0.02, false)}
	res := Diff(base, pass, Options{SampleCI: true})
	if res.Failed() {
		t.Errorf("in-CI sampled run failed the gate:\n%s", res)
	}
	if res.Compared != 2 {
		t.Errorf("Compared = %d, want 2 (sampling metrics only)", res.Compared)
	}

	// |2.60-2.40| = 0.20 > 0.15: outside the interval.
	fail := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.60, 0.02, false)}
	res = Diff(base, fail, Options{SampleCI: true})
	if !res.Failed() {
		t.Fatalf("out-of-CI sampled run passed the gate:\n%s", res)
	}
	if f := res.Findings[0]; !strings.Contains(f.Column, "ci-gate") {
		t.Errorf("finding = %+v", f)
	}

	// A wider stated CI absorbs the same delta.
	wide := map[string]*experiments.Report{"fig14": mkSampled("fig14", 2.60, 0.10, false)}
	if res := Diff(base, wide, Options{SampleCI: true}); res.Failed() {
		t.Errorf("wide-CI sampled run failed the gate:\n%s", res)
	}

	// A reference without a sampling section is a usage error.
	bare := map[string]*experiments.Report{"fig14": mkReport("fig14", 2.4, 0.05)}
	if res := Diff(bare, pass, Options{SampleCI: true}); len(res.Mismatches) == 0 {
		t.Error("reference without sampling section accepted")
	}
}
