// Command skiaexp regenerates the paper's evaluation artifacts: every
// figure and table from "Exposing Shadow Branches" (ASPLOS 2025), plus
// the ablations documented in DESIGN.md.
//
// Usage:
//
//	skiaexp -list
//	skiaexp -exp fig14
//	skiaexp -exp all -measure 3000000
//	skiaexp -exp fig3 -benchmarks voter,tpcc,kafka -warmup 500000
//	skiaexp -exp all -json -out results/
//
// By default reports render as aligned plain text. With -json each
// report is emitted as a versioned JSON envelope (schema documented in
// EXPERIMENTS.md, "Results schema"); with -out DIR the envelopes are
// written to DIR/<id>.json plus a DIR/manifest.json index, ready for
// regression diffing with cmd/skiacmp. With -archive DIR each report
// is also stored in the run-history archive cmd/skiaboard reads.
//
// Every failure — experiment errors, report or manifest write errors,
// profiler shutdown errors — exits nonzero; a partial -out directory
// is never silently reported as success.
//
// Absolute numbers will not match the paper's gem5/Alder Lake testbed;
// the shapes (who wins, by roughly what factor, where crossovers fall)
// are the reproduction target. See EXPERIMENTS.md for the recorded
// comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// gitDescribe best-effort identifies the tree that produced a report;
// empty when git or the repository is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "skiaexp: %v\n", err)
		os.Exit(1)
	}
}

// run executes the CLI and returns every failure joined: an error from
// any experiment, report write, manifest write, or profiler stop makes
// the process exit nonzero (regression-tested in main_test.go — an
// earlier version exited 0 when the manifest write failed after the
// per-experiment files were already on disk).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("skiaexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (see -list), or 'all'")
		list    = fs.Bool("list", false, "list available experiments")
		warmup  = fs.Uint64("warmup", 0, "warmup instructions per run (0 = default)")
		measure = fs.Uint64("measure", 0, "measured instructions per run (0 = default)")
		benches = fs.String("benchmarks", "", "comma-separated benchmark subset (default: full suite)")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		asJSON  = fs.Bool("json", false, "emit JSON report envelopes instead of plain text")
		outDir  = fs.String("out", "", "write <id>.json per experiment plus manifest.json into this directory (implies -json)")
		arcDir  = fs.String("archive", "", "also record each report in this run-history archive (implies -json; see cmd/skiaboard)")

		intervals = fs.Uint64("intervals", 0,
			"collect interval metrics every N retired instructions per run; summaries land in the report envelope's `intervals` section (0 = off)")
		attribOn = fs.Bool("attrib", false,
			"classify BTB misses and stall cycles by cause on every run; summaries land in the report envelope's `attribution` section")

		sample = fs.Bool("sample", false,
			"sampled simulation: splice K detail intervals over the measurement window instead of simulating it exactly; every headline metric gains a 95% CI in the envelope's `sampling` section")
		sampleIntervals = fs.Int("sample-intervals", 0,
			"detail intervals per sampled run (0 = default 10; implies -sample)")
		sampleInterval = fs.Uint64("sample-interval", 0,
			"measured instructions per detail interval (0 = measure/K/10; implies -sample)")
		sampleWarmup = fs.Uint64("sample-warmup", 0,
			"detail micro-warmup instructions before each interval (0 = interval/2; implies -sample)")
		sampleWarmWindow = fs.Uint64("sample-warm-window", 0,
			"bound functional warming to the final N instructions of each interval's skip; the rest skips cold (0 = warm the whole distance; implies -sample)")
		sampleShards = fs.Int("sample-shards", 0,
			"fan sampled intervals out over this many cores per run; results are identical to serial (0 = 1; implies -sample)")
		checkpoint = fs.Bool("checkpoint", false,
			"share detail warmup between runs with the same (benchmark, warmup, config) via core checkpoints; bit-identical results, less wall-clock")
		sampleEcho = fs.Bool("sample-echo", false,
			"make exact runs publish a CI-free `sampling` section too, for skiacmp -sample-ci gating")
	)
	var prof metrics.Profiler
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir != "" || *arcDir != "" {
		*asJSON = true
	}
	var arc *store.Archive
	if *arcDir != "" {
		var err error
		if arc, err = store.Open(*arcDir); err != nil {
			return err
		}
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	var failures []error
	cat := experiments.Catalog()
	if *list || *exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range experiments.IDs() {
			fmt.Fprintln(stdout, "  "+n)
		}
		fmt.Fprintln(stdout, "  all")
		return stopProf()
	}

	opts := experiments.Options{Warmup: *warmup, Measure: *measure, Workers: *workers, Interval: *intervals, Attrib: *attribOn,
		Checkpoint: *checkpoint, SampleEcho: *sampleEcho}
	if *sample || *sampleIntervals != 0 || *sampleInterval != 0 || *sampleWarmup != 0 ||
		*sampleWarmWindow != 0 || *sampleShards != 0 {
		opts.Sample = &sim.SamplePlan{
			Intervals:     *sampleIntervals,
			IntervalInsts: *sampleInterval,
			MicroWarmup:   *sampleWarmup,
			WarmWindow:    *sampleWarmWindow,
			Shards:        *sampleShards,
		}
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			failures = append(failures, err)
			return errors.Join(append(failures, stopProf())...)
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Order
	}
	describe := gitDescribe()
	mf := experiments.Manifest{
		SchemaVersion: experiments.SchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GitDescribe:   describe,
		Args:          args,
	}
	for _, id := range ids {
		fn, ok := cat[id]
		if !ok {
			failures = append(failures, fmt.Errorf("unknown experiment %q (try -list)", id))
			break
		}
		start := time.Now()
		rep, err := fn(opts)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", id, err))
			break
		}
		elapsed := time.Since(start)
		if !*asJSON {
			fmt.Fprintln(stdout, rep)
			fmt.Fprintf(stdout, "(%s in %s)\n\n", id, elapsed.Round(time.Millisecond))
			continue
		}
		rep.Meta.GitDescribe = describe
		rep.Meta.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: marshal: %w", id, err))
			break
		}
		data = append(data, '\n')
		if arc != nil {
			entry, added, err := arc.PutReport(data, store.NewSpec(id, opts), store.PutMeta{
				RecordedAt: time.Now(), GitDescribe: describe, Source: "skiaexp",
			})
			if err != nil {
				failures = append(failures, fmt.Errorf("%s: archive: %w", id, err))
				break
			}
			state := "archived"
			if !added {
				state = "already archived (dedup)"
			}
			fmt.Fprintf(stdout, "%s %s as %s (spec %s)\n", state, id, entry.ID[:12], entry.SpecHash[:12])
		}
		if *outDir == "" {
			stdout.Write(data)
			continue
		}
		file := id + ".json"
		if err := os.WriteFile(filepath.Join(*outDir, file), data, 0o644); err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", id, err))
			break
		}
		mf.Experiments = append(mf.Experiments, experiments.ManifestEntry{
			ID: id, Title: rep.Title, File: file, WallSeconds: elapsed.Seconds(),
		})
		mf.TotalWallSeconds += elapsed.Seconds()
		fmt.Fprintf(stdout, "wrote %s (%s in %s)\n", filepath.Join(*outDir, file), id, elapsed.Round(time.Millisecond))
	}
	if *outDir != "" {
		if err := writeManifest(*outDir, mf); err != nil {
			failures = append(failures, err)
		} else {
			fmt.Fprintf(stdout, "wrote %s (%d experiments)\n", filepath.Join(*outDir, "manifest.json"), len(mf.Experiments))
		}
	}
	if err := stopProf(); err != nil {
		failures = append(failures, err)
	}
	return errors.Join(failures...)
}

// writeManifest serializes the run index to DIR/manifest.json.
func writeManifest(dir string, mf experiments.Manifest) error {
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}
