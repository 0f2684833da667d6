package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sizes fixes every window and repetition count the benchmark uses.
// Tests shrink them; the benchmark itself always runs defaultSizes.
type sizes struct {
	// benches is the benchmark list of every sweep (nil: the paper's
	// 16-benchmark suite).
	benches []string
	// Windows of the exact Fig. 14 sweep, the Fig. 1 sweep and the
	// sampled Fig. 14 sweep, in instructions.
	fig14Warm, fig14Meas uint64
	fig1Warm, fig1Meas   uint64
	sampWarm, sampMeas   uint64
	// plan is the sampled sweep's sampling plan.
	plan sim.SamplePlan
	// probeWarm and probeInsts size the cpu-layer probes: instructions
	// run before timing, and instructions timed.
	probeWarm, probeInsts uint64
	// replaySteps is how many emulator steps each replay program records.
	replaySteps int
	// reps is how many times each probe and replay is repeated; the
	// median repetition is reported.
	reps int
}

var defaultSizes = sizes{
	fig14Warm: 30_000, fig14Meas: 90_000,
	fig1Warm: 30_000, fig1Meas: 90_000,
	sampWarm: 30_000, sampMeas: 250_000,
	plan:      sim.SamplePlan{Intervals: 4, IntervalInsts: 10_000, MicroWarmup: 5_000, Shards: 1},
	probeWarm: 100_000, probeInsts: 200_000,
	replaySteps: 200_000,
	reps:        5,
}

func (sz sizes) suite() []string {
	if sz.benches != nil {
		return sz.benches
	}
	return workload.SuiteNames()
}

// Paper reference values the repository holds.
const (
	paperFig14BothPct   = 5.64 // Fig. 14 geomean IPC gain, head+tail
	paperFig1ResidentPc = 75.0 // Fig. 1 share of 8K-BTB misses L1-I resident
)

// fig14Variants are Fig. 14's four configurations, in the order the
// figure's harness (experiments.Fig14) builds them.
var fig14Variants = []struct {
	label      string
	head, tail bool
}{
	{"baseline", false, false},
	{"head", true, false},
	{"tail", false, true},
	{"both", true, true},
}

// workloadDef is one benchmark workload: the sweep it runs, its
// paper_gap_pp arithmetic and its output checks.
type workloadDef struct {
	name    string
	sampled bool
	specs   func(sz sizes, extraWarm uint64) []sim.RunSpec
	// gap returns paper_gap_pp for a sweep's results.
	gap func(res []sim.Result, nBench int) float64
	// check returns one error per failed output check, and how many
	// checks it made.
	check func(res []sim.Result, nBench int) (checks int, errs []error)
}

var workloads = []*workloadDef{
	{name: "fig14-exact", specs: fig14Exact, gap: fig14Gap, check: checkFig14},
	{name: "fig1-baseline", specs: fig1Specs, gap: fig1Gap, check: checkFig1},
	{name: "fig14-sampled", sampled: true, specs: fig14Sampled, gap: fig14Gap, check: checkSampled},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fig14Specs builds Fig. 14's 4 × len(benches) specs exactly as
// experiments.Fig14 does.
func fig14Specs(benches []string, warm, meas uint64) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, v := range fig14Variants {
		for _, b := range benches {
			cfg := cpu.DefaultConfig()
			if v.head || v.tail {
				cfg = cpu.SkiaConfig()
				cfg.Frontend.SBD.Head, cfg.Frontend.SBD.Tail = v.head, v.tail
			}
			specs = append(specs, sim.RunSpec{
				Benchmark: b, Config: cfg, Warmup: warm, Measure: meas, Label: v.label,
			})
		}
	}
	return specs
}

func fig14Exact(sz sizes, extraWarm uint64) []sim.RunSpec {
	return fig14Specs(sz.suite(), sz.fig14Warm+extraWarm, sz.fig14Meas)
}

func fig14Sampled(sz sizes, extraWarm uint64) []sim.RunSpec {
	specs := fig14Specs(sz.suite(), sz.sampWarm+extraWarm, sz.sampMeas)
	for i := range specs {
		plan := sz.plan
		specs[i].Sample = &plan
	}
	return specs
}

// fig1Specs builds Fig. 1's BTB-size sweep exactly as experiments.Fig1
// does: the baseline core at each size of experiments.DefaultBTBSizes.
func fig1Specs(sz sizes, extraWarm uint64) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, size := range experiments.DefaultBTBSizes {
		for _, b := range sz.suite() {
			cfg := cpu.DefaultConfig()
			cfg.Frontend.BTB = sim.BTBWithEntries(size)
			specs = append(specs, sim.RunSpec{
				Benchmark: b, Config: cfg, Warmup: sz.fig1Warm + extraWarm, Measure: sz.fig1Meas,
				Label: strconv.Itoa(size),
			})
		}
	}
	return specs
}

// variantIPCs returns the per-benchmark IPCs of Fig. 14 variant v.
func variantIPCs(res []sim.Result, nBench, v int) []float64 {
	out := make([]float64, nBench)
	for i := range out {
		out[i] = res[v*nBench+i].IPC
	}
	return out
}

// fig14Gap compares the figure's head+tail geomean with the paper's.
func fig14Gap(res []sim.Result, nBench int) float64 {
	both := stats.GeomeanSpeedup(variantIPCs(res, nBench, 3), variantIPCs(res, nBench, 0))
	return paperGapPP(both, paperFig14BothPct)
}

// checkFig14 recomputes each variant's geomean row from per-spec IPCs
// and compares it with the value the figure's arithmetic reports.
func checkFig14(res []sim.Result, nBench int) (int, []error) {
	var errs []error
	base := variantIPCs(res, nBench, 0)
	for v := 1; v < len(fig14Variants); v++ {
		ipcs := variantIPCs(res, nBench, v)
		got, want := stats.GeomeanSpeedup(ipcs, base), geomeanGain(ipcs, base)
		if !(math.Abs(got-want) <= 1e-9) {
			errs = append(errs, fmt.Errorf("fig14 %s geomean row %.12f, recomputed %.12f",
				fig14Variants[v].label, got, want))
		}
	}
	return len(fig14Variants) - 1, errs
}

// fig1Resident returns Fig. 1's L1-I-resident share of BTB misses at
// the given BTB size, with the figure's arithmetic: the mean resident
// MPKI over the mean miss MPKI.
func fig1Resident(res []sim.Result, nBench, size int) float64 {
	for si, s := range experiments.DefaultBTBSizes {
		if s != size {
			continue
		}
		var mpki, hit []float64
		for _, r := range res[si*nBench : (si+1)*nBench] {
			mpki = append(mpki, r.BTBMissMPKI)
			hit = append(hit, stats.MPKI(r.FE.BTBMissL1IHit, r.Instructions))
		}
		if m := stats.Mean(mpki); m > 0 {
			return stats.Mean(hit) / m
		}
	}
	return 0
}

func fig1Gap(res []sim.Result, nBench int) float64 {
	return paperGapPP(fig1Resident(res, nBench, 8192), paperFig1ResidentPc)
}

// checkFig1 checks that no spec counts more L1-I-resident BTB misses
// than BTB misses, and that the sweep has misses at 8K entries.
func checkFig1(res []sim.Result, _ int) (int, []error) {
	var errs []error
	for _, r := range res {
		if r.FE.BTBMissL1IHit > r.FE.BTBMissTotal() {
			errs = append(errs, fmt.Errorf("fig1 %s: %d resident misses > %d misses",
				r.Benchmark, r.FE.BTBMissL1IHit, r.FE.BTBMissTotal()))
		}
	}
	return len(res), errs
}

// checkSampled runs the Fig. 14 checks and checks every spec's sampled
// conservation identity: skipped + micro-warmup + measured = advanced.
func checkSampled(res []sim.Result, nBench int) (int, []error) {
	n, errs := checkFig14(res, nBench)
	for _, r := range res {
		n++
		s := r.Sampling
		if s == nil {
			errs = append(errs, fmt.Errorf("sampled %s/%s: no sampling summary", r.Benchmark, r.Label))
			continue
		}
		c := s.Counters
		if c.SkippedInstructions+c.MicroWarmupInstructions+c.MeasuredInstructions != c.AdvancedInstructions {
			errs = append(errs, fmt.Errorf("sampled %s/%s: %d+%d+%d != %d advanced", r.Benchmark, r.Label,
				c.SkippedInstructions, c.MicroWarmupInstructions, c.MeasuredInstructions, c.AdvancedInstructions))
		}
	}
	return n, errs
}

// sweep is one cold sweep's measurements.
type sweep struct {
	// setup is workload generation for the suite plus the first core
	// construction; gen and newCore split it.
	setup, gen, newCore float64 // seconds
	// wall is the sim.Runner.RunAll time; window is the warmup +
	// measure instructions of every spec.
	wall     float64
	window   uint64
	specSecs []float64
	results  []sim.Result
	failed   int     // specs that returned an error
	heapMB   float64 // live heap after a forced GC, runner still reachable
	digest   string
}

func (s *sweep) mips() float64 { return float64(s.window) / s.wall / 1e6 }

// runSweep runs specs cold through a fresh sim.Runner. A non-nil cache
// turns warmup checkpointing on over that cache; sampled specs carry
// their own plan.
func runSweep(specs []sim.RunSpec, workers int, cache *sim.CheckpointCache, rec *spanRecorder) (*sweep, error) {
	out := &sweep{}
	r := sim.NewRunner()
	r.Workers = workers
	if cache != nil {
		r.Checkpoint = true
		r.Checkpoints = cache
	}

	// Set-up: generate every program of the sweep, then build the first
	// core, as the first spec would.
	endSetup := rec.begin("setup")
	var first *workload.Workload
	var err error
	gen := stopwatch(func() {
		seen := map[string]bool{}
		for _, s := range specs {
			if seen[s.Benchmark] {
				continue
			}
			seen[s.Benchmark] = true
			end := rec.begin("workload.Generate")
			w, werr := r.Workload(s.Benchmark)
			end()
			if werr != nil {
				err = werr
				return
			}
			if first == nil {
				first = w
			}
		}
	})
	if err != nil {
		return nil, err
	}
	end := rec.begin("cpu.New")
	newCore := stopwatch(func() { _, err = cpu.New(specs[0].Config, first) })
	end()
	endSetup()
	if err != nil {
		return nil, err
	}
	out.gen, out.newCore = gen.Seconds(), newCore.Seconds()
	out.setup = out.gen + out.newCore

	for _, s := range specs {
		out.window += s.Warmup + s.Measure
	}
	var res []sim.Result
	end = rec.begin("sim.Runner.RunAll")
	out.wall = stopwatch(func() { res, err = r.RunAll(specs) }).Seconds()
	end()
	if err != nil {
		out.failed = 1
		var joined interface{ Unwrap() []error }
		if errors.As(err, &joined) {
			out.failed = len(joined.Unwrap())
		}
	}
	out.results = res
	for _, t := range r.Stats().Specs {
		out.specSecs = append(out.specSecs, t.Seconds)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(r)
	runtime.KeepAlive(cache)
	if out.digest, err = resultDigest(res); err != nil {
		return nil, err
	}
	return out, nil
}

// resultDigest hashes every simulated counter and derived metric of a
// sweep. Results carry no wall-clock field, so equal digests mean
// bit-identical simulations.
func resultDigest(res []sim.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}
