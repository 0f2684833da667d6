package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/sim"
)

// pinnedFig14 lists the Fig. 14 runs whose complete JSON reports are
// pinned byte-for-byte under testdata. The exact run attaches miss
// attribution, so the pinned bytes cover every replayed shadow-decode
// statistic and the OnHeadPaths valid-path distribution; the sampled
// run covers shadow decodes during functional warming. The echo run
// covers the report's `intervals` section and the exact-echo
// `sampling` rows, both built from the run results, on a checkpointed
// runner.
var pinnedFig14 = map[string]Options{
	"testdata/fig14-pinned-exact.json": {Warmup: 100_000, Measure: 300_000,
		Benchmarks: []string{"voter", "noop"}, Attrib: true},
	"testdata/fig14-pinned-sampled.json": {Warmup: 50_000, Measure: 400_000,
		Benchmarks: []string{"voter"},
		Sample:     &sim.SamplePlan{Intervals: 4, IntervalInsts: 20_000, MicroWarmup: 10_000}},
	"testdata/fig14-pinned-echo.json": {Warmup: 50_000, Measure: 200_000,
		Benchmarks: []string{"voter"}, Interval: 50_000, SampleEcho: true, Checkpoint: true},
}

// TestFig14ReportPinned is the end-to-end guarantee behind the shared
// shadow-decode table: decoding each region once per workload is a
// pure throughput optimization, so the Fig. 14 reports must stay
// byte-identical to the pinned ones, which were produced by a
// simulator that decoded afresh. Only Meta.Sim (wall-clock throughput
// counters) is dropped before comparing. A deliberate model change
// regenerates the files with SKIA_PIN_UPDATE=1 go test -run
// TestFig14ReportPinned ./internal/experiments.
func TestFig14ReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three Fig. 14 sweeps")
	}
	for path, o := range pinnedFig14 {
		rep, err := Fig14(o)
		if err != nil {
			t.Fatal(err)
		}
		rep.Meta.Sim = nil // wall-clock timings differ run to run
		got, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if os.Getenv("SKIA_PIN_UPDATE") != "" {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: report drifted from the pinned bytes:\n%s", path, got)
		}
	}
}
