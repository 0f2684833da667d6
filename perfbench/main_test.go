package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {49, 50}, {50, 80}, {64, 80},
		{99, 80}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && c.n-rank(c.n, p) < minTail {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(64 - i) // 64..1, unsorted
	}
	if got := percentile(xs, 80); got != 52 {
		t.Errorf("p80 of 1..64 = %g, want 52", got)
	}
	if got := median(xs); got != 32.5 {
		t.Errorf("median of 1..64 = %g, want 32.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestPaperGap(t *testing.T) {
	if got := paperGapPP(0.0158, 5.64); math.Abs(got-4.06) > 1e-12 {
		t.Errorf("gap(+1.58%%, 5.64%%) = %g pp, want 4.06", got)
	}
	if got := paperGapPP(0.80, 75); math.Abs(got-5) > 1e-12 {
		t.Errorf("gap(80%%, 75%%) = %g pp, want 5 (absolute)", got)
	}
	// Fig. 14: two benchmarks, "both" gains +10% and +0% → geomean
	// sqrt(1.1)-1 = 4.88%, 0.76 pp under the paper's 5.64%.
	res := make([]sim.Result, 8)
	for i := range res {
		res[i].IPC = 1
	}
	res[3*2+0].IPC = 1.1
	want := math.Abs((math.Sqrt(1.1)-1)*100 - 5.64)
	if got := fig14Gap(res, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("fig14Gap = %g, want %g", got, want)
	}
	if n, errs := checkFig14(res, 2); n != 3 || len(errs) != 0 {
		t.Errorf("checkFig14 = %d checks, %v", n, errs)
	}
	// Fig. 1: at 8K entries one benchmark misses 10 MPKI with 9
	// resident, the other 30 with 15: mean resident 12 / mean 20 = 60%.
	nb := 2
	res = make([]sim.Result, len(experiments.DefaultBTBSizes)*nb)
	for si, size := range experiments.DefaultBTBSizes {
		if size != 8192 {
			continue
		}
		for b, m := range [][2]uint64{{10, 9}, {30, 15}} {
			r := &res[si*nb+b]
			r.Instructions = 1000
			r.FE.BTBMissCond = m[0]
			r.FE.BTBMissL1IHit = m[1]
			r.Derive()
		}
	}
	if got := fig1Gap(res, nb); math.Abs(got-15) > 1e-9 {
		t.Errorf("fig1Gap = %g, want 15 (60%% against 75%%)", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "b", StartNS: 20, EndNS: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // ends past the parent
		{ID: 5, Parent: 3, Name: "grandchild", StartNS: 25, EndNS: 45},
	}
	fillSelfTimes(spans)
	want := map[string]int64{"parent": 50, "a": 20, "b": 10, "c": 30, "grandchild": 20}
	for _, s := range spans {
		if s.SelfNS != want[s.Name] {
			t.Errorf("%s self = %d ns, want %d", s.Name, s.SelfNS, want[s.Name])
		}
	}

	rec := newSpanRecorder()
	end := rec.begin("outer")
	rec.begin("inner")()
	end()
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].ID {
		t.Errorf("recorded spans %+v: inner should nest under outer", rec.spans)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if fn == "repro/perfbench.spin" || fn == "main.spin" {
				inSpin += s.value
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Errorf("spin holds %d of %d profiled ns, want most", inSpin, total)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile parsed without error")
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/frontend.(*FrontEnd).Step": "frontend",
		"repro/internal/ras.(*Stack).Push":         "frontend",
		"repro/internal/program.(*Program).Line":   "workload",
		"repro/internal/core.(*SBD).DecodeHead":    "core",
		"repro/internal/stats.Mean":                "",
		"runtime.memmove":                          "",
	} {
		if got := layerOf(funcPackage(name)); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", name, got, want)
		}
	}
}

// tinySizes keeps the smoke runs to a few seconds.
var tinySizes = sizes{
	benches:   []string{"voter", "kafka"},
	fig14Warm: 5_000, fig14Meas: 10_000,
	fig1Warm: 5_000, fig1Meas: 10_000,
	sampWarm: 5_000, sampMeas: 40_000,
	plan:      sim.SamplePlan{Intervals: 2, IntervalInsts: 2_000, MicroWarmup: 1_000, Shards: 1},
	probeWarm: 5_000, probeInsts: 10_000,
	replaySteps: 5_000,
	reps:        1,
}

// benchmarkFile is the subset of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// resultLine decodes the last line a run printed.
func resultLine(t *testing.T, out []byte) (correct bool, failed int, metrics map[string]metric) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]metric
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res.Correct, res.Failed, res.Metrics
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced at
// tiny sizes and checks that each prints every metric the file names,
// with its unit, and passes its output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		def, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for trace, want := range [][]struct{ Name, Unit string }{bf.EndToEnd, bf.PerLayer} {
			rep := newReport()
			var out bytes.Buffer
			if trace == 1 {
				err = runTraced(rep, def, tinySizes, 1, t.TempDir(), &out)
			} else {
				err = runTimed(rep, def, tinySizes, 1, 2*time.Second, &out)
			}
			if err == nil {
				err = rep.write(&out)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			correct, failed, metrics := resultLine(t, out.Bytes())
			if !correct || failed != 0 {
				t.Errorf("%s trace=%d: %d failed checks\n%s", w.Name, trace, failed, out.String())
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestPredictionsCoverPerLayer checks that predictions.json states, for
// every per-layer metric, which end-to-end metrics it should move or on
// which workloads it predicts no change.
func TestPredictionsCoverPerLayer(t *testing.T) {
	bf := readBenchmarkFile(t)
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		PerLayer map[string]struct {
			Moves    []string `json:"moves"`
			NoChange []string `json:"no_change_on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &pred); err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.PerLayer {
		if p, ok := pred.PerLayer[m.Name]; !ok || len(p.Moves)+len(p.NoChange) == 0 {
			t.Errorf("predictions.json has no prediction for %s", m.Name)
		}
	}
	if len(pred.PerLayer) != len(bf.PerLayer) {
		t.Errorf("predictions.json covers %d metrics, BENCHMARK.json has %d", len(pred.PerLayer), len(bf.PerLayer))
	}
}

// TestSweepsMatchHarness checks that the benchmark's sweeps build the
// same specs as the figure harnesses: the Fig. 14 geomean row and the
// Fig. 1 8K residency share agree with experiments.Fig14 and Fig1.
func TestSweepsMatchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two figure sweeps")
	}
	sz := tinySizes
	o := experiments.Options{Benchmarks: sz.benches, Warmup: sz.fig14Warm, Measure: sz.fig14Meas, Workers: 2}
	rep, err := experiments.Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runSweep(fig14Exact(sz, 0), 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Table.Row(rep.Table.NumRows() - 1)
	both := stats.GeomeanSpeedup(variantIPCs(sw.results, 2, 3), variantIPCs(sw.results, 2, 0))
	if got, want := row[3].Value, both; math.Abs(got-want) > 1e-12 {
		t.Errorf("Fig14 both geomean %g, benchmark sweep %g", got, want)
	}

	o.Warmup, o.Measure = sz.fig1Warm, sz.fig1Meas
	rep, err = experiments.Fig1(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw, err = runSweep(fig1Specs(sz, 0), 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rep.Table.NumRows(); i++ {
		if row := rep.Table.Row(i); row[0].Text == "8192" {
			if got, want := row[3].Value, fig1Resident(sw.results, 2, 8192); math.Abs(got-want) > 1e-12 {
				t.Errorf("Fig1 8K resident share %g, benchmark sweep %g", got, want)
			}
		}
	}
}
