// Command perfbench is the repository benchmark. Each workload is a
// cold sweep of a paper figure run through the public experiments,
// sim, cpu and workload API, repeated for a fixed time:
//
//	fig14-exact    the exact Fig. 14 sweep (4 configurations × suite)
//	fig1-baseline  the Fig. 1 BTB-size sweep (baseline front-end only)
//	fig14-sampled  the Fig. 14 specs, sampled over warmup checkpoints
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// runs the sweep once more with spans recorded around each layer call
// and a CPU profile, replays recorded traffic through each layer's
// public API, and prints the per-layer metrics. Either way the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, normally through run.py, which
// builds this package first):
//
//	perfbench -workload fig14-exact -seed 0 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/sim"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates metrics and output checks for the result line.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []error
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

// count books n attempted operations, of which errs failed.
func (r *report) count(n int, errs ...error) {
	r.attempted += n
	r.failed += len(errs)
	r.errs = append(r.errs, errs...)
}

// check books one output check.
func (r *report) check(ok bool, format string, args ...any) {
	var errs []error
	if !ok {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	r.count(1, errs...)
}

// write prints every metric and error line, then the result object as
// the last line.
func (r *report) write(w io.Writer) error {
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAIL %v\n", e)
	}
	for _, name := range sortedKeys(r.metrics) {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "error_rate %g (%d failed of %d attempted)\n", errRate, r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// workers is the sweep concurrency: one worker per CPU, at most two,
// so workers × sample shards never exceeds the CPUs.
func workers() int {
	return min(runtime.NumCPU(), 2)
}

func main() {
	name := flag.String("workload", "", "workload: fig14-exact, fig1-baseline or fig14-sampled")
	seed := flag.Int64("seed", 0, "workload seed (0: the windows and programs the paper figures use)")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	outDir := flag.String("out", ".bench_build/traces", "directory for the traced run's spans")
	flag.Parse()
	def, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1 || *seed < 0) {
		err = fmt.Errorf("need -seconds >= 1, -trace 0 or 1 and -seed >= 0")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := newReport()
	if *trace == 1 {
		err = runTraced(rep, def, defaultSizes, *seed, *outDir, os.Stdout)
	} else {
		err = runTimed(rep, def, defaultSizes, *seed, time.Duration(*seconds)*time.Second, os.Stdout)
	}
	if err == nil {
		err = rep.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runTimed repeats cold sweeps of def for about budget and reports the
// end-to-end metrics: medians over sweeps, and percentiles over the
// per-spec times of every sweep.
func runTimed(rep *report, def *workloadDef, sz sizes, seed int64, budget time.Duration, log io.Writer) error {
	specs := def.specs(sz, warmupOffset(seed))
	nBench := len(sz.suite())
	var sweeps []*sweep
	//skia:nondet-ok host timing of the measured run, reported by the benchmark
	start := time.Now()
	for {
		var cache *sim.CheckpointCache
		if def.sampled {
			cache = sim.NewCheckpointCache()
		}
		sw, err := runSweep(specs, workers(), cache, nil)
		if err != nil {
			return err
		}
		bookSweep(rep, def, sw, nBench, sweeps)
		if len(sweeps) > 0 {
			sw.results = nil // only the first sweep's results are kept
		}
		sweeps = append(sweeps, sw)
		fmt.Fprintf(log, "sweep %d: %d specs, setup %.3fs, sweep %.3fs, %.4f MIPS, heap %.1f MB\n",
			len(sweeps), len(specs), sw.setup, sw.wall, sw.mips(), sw.heapMB)
		//skia:nondet-ok host timing of the measured run, reported by the benchmark
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(sweeps)) > budget {
			break
		}
	}
	var mips, setup, heap, specSecs []float64
	for _, sw := range sweeps {
		mips = append(mips, sw.mips())
		setup = append(setup, sw.setup)
		heap = append(heap, sw.heapMB)
		specSecs = append(specSecs, sw.specSecs...)
	}
	n := len(specSecs)
	top := highestPercentile(n)
	fmt.Fprintf(log, "spec times: %d samples over %d sweeps; highest percentile with >= %d beyond: p%g\n",
		n, len(sweeps), minTail, top)
	rep.check(top >= 80, "only %d spec samples: p80 has fewer than %d beyond it", n, minTail)
	fmt.Fprintf(log, "result_digest %s seed=%d %s\n", def.name, seed, sweeps[0].digest)
	rep.set("sim_mips", median(mips), "MIPS")
	rep.set("setup_s", median(setup), "s")
	rep.set("spec_s_p50", percentile(specSecs, 50), "s")
	rep.set("spec_s_p80", percentile(specSecs, 80), "s")
	rep.set("heap_mb", median(heap), "MB")
	rep.set("paper_gap_pp", def.gap(sweeps[0].results, nBench), "pp")
	return nil
}

// bookSweep counts a sweep's specs and output checks into rep: spec
// errors, the workload's own checks, and a digest equal to that of the
// run's earlier sweeps.
func bookSweep(rep *report, def *workloadDef, sw *sweep, nBench int, earlier []*sweep) {
	var specErrs []error
	for i := 0; i < sw.failed; i++ {
		specErrs = append(specErrs, fmt.Errorf("%s: spec failed", def.name))
	}
	rep.count(len(sw.results), specErrs...)
	if sw.failed == 0 {
		n, errs := def.check(sw.results, nBench)
		rep.count(n, errs...)
	}
	if len(earlier) > 0 {
		rep.check(sw.digest == earlier[0].digest, "%s: sweep digest %s differs from first sweep's %s",
			def.name, sw.digest, earlier[0].digest)
	}
}
