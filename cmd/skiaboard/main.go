// Command skiaboard is the regression observatory over the run-history
// archive (internal/store): it renders a static HTML dashboard of
// metric trajectories and attribution share stacks, checks the newest
// run of every trajectory against its predecessor under the
// internal/compare tolerance bands (sign-flip gate included) with
// exit-code gating for CI, and imports report files into the archive.
//
// Usage:
//
//	skiaboard render -archive DIR -out dashboard.html
//	skiaboard check  -archive DIR [-rtol 0.05] [-atol 1e-6] ...
//	skiaboard put    -archive DIR FILE...
//
// render and the dashboard are stdlib-only (html/template plus inline
// SVG sparklines) — the output is one self-contained file suitable for
// a CI artifact. check diffs, per experiment and per spec hash, the
// latest archived record against the one before it; any tolerance
// violation or speedup sign flip exits 1. put stamps report files
// produced elsewhere (skiaexp -out) into the archive, which is how CI
// injects a synthetic regression to prove the gate trips.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/compare"
	"repro/internal/experiments"
	"repro/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "render":
		err = cmdRender(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "put":
		err = cmdPut(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "skiaboard: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if err == errCheckFailed {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "skiaboard: %v\n", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  skiaboard render -archive DIR [-out FILE] [-title T]   render the HTML dashboard
  skiaboard check  -archive DIR [tolerance flags]        gate the newest run of every trajectory (exit 1 on regression)
  skiaboard put    -archive DIR FILE...                  import report files
`)
}

// errCheckFailed signals the exit-1 path (regression found) as opposed
// to exit-2 operational errors.
var errCheckFailed = fmt.Errorf("check failed")

// openArchive opens the -archive directory, required by every
// subcommand.
func openArchive(dir string) (*store.Archive, error) {
	if dir == "" {
		return nil, fmt.Errorf("-archive is required")
	}
	return store.Open(dir)
}

// gitDescribe best-effort identifies the current tree ("" off-repo).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cmdCheck is the tolerance-band regression detector: for every
// (experiment, spec hash) trajectory with at least two records it
// diffs the previous record against the latest under the
// internal/compare tolerances — the same bands and speedup sign-flip
// gate cmd/skiacmp applies between result directories — and exits 1
// if any trajectory regressed.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("skiaboard check", flag.ExitOnError)
	var (
		dir       = fs.String("archive", "", "run-history archive directory")
		rtol      = fs.Float64("rtol", 0.05, "relative tolerance per numeric cell")
		atol      = fs.Float64("atol", 1e-6, "absolute tolerance floor for near-zero cells")
		flipMin   = fs.Float64("flip-min", 1e-3, "minimum |speedup| on both sides before a sign flip counts")
		ivRTol    = fs.Float64("iv-rtol", 0.05, "relative tolerance for per-spec interval summaries")
		attribTol = fs.Float64("attrib-tol", 0.05, "absolute tolerance for attribution shares")
	)
	fs.Parse(args)
	a, err := openArchive(*dir)
	if err != nil {
		return err
	}
	opt := compare.Options{RTol: *rtol, ATol: *atol, FlipMin: *flipMin,
		IVRTol: *ivRTol, AttribTol: *attribTol}

	checked, failed := 0, 0
	for _, exp := range a.Experiments() {
		series, err := a.Series(exp)
		if err != nil {
			return err
		}
		for _, sr := range series {
			n := len(sr.Records)
			if n < 2 {
				fmt.Printf("%s %s: 1 record, nothing to gate\n", exp, short(sr.SpecHash))
				continue
			}
			prev, err := experiments.DecodeReport(sr.Records[n-2].Payload)
			if err != nil {
				return fmt.Errorf("record %s: %w", sr.Records[n-2].ID, err)
			}
			latest, err := experiments.DecodeReport(sr.Records[n-1].Payload)
			if err != nil {
				return fmt.Errorf("record %s: %w", sr.Records[n-1].ID, err)
			}
			checked++
			res := compare.Diff(
				map[string]*experiments.Report{exp: prev},
				map[string]*experiments.Report{exp: latest}, opt)
			verdict := "ok"
			if res.Failed() {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("%s %s: %s (%s -> %s, %d cells)\n",
				exp, short(sr.SpecHash), verdict,
				short(sr.Records[n-2].ContentHash), short(sr.Records[n-1].ContentHash),
				res.Compared)
			if res.Failed() {
				fmt.Print(indent(res.String()))
			}
		}
	}
	fmt.Printf("checked %d trajectories, %d regressed\n", checked, failed)
	if failed > 0 {
		return errCheckFailed
	}
	return nil
}

// cmdPut imports experiment report files into the archive, recovering
// each one's spec from the envelope via store.SpecOfReport.
func cmdPut(args []string) error {
	fs := flag.NewFlagSet("skiaboard put", flag.ExitOnError)
	var (
		dir      = fs.String("archive", "", "run-history archive directory")
		source   = fs.String("source", "skiaboard", "source label stamped on the records")
		describe = fs.String("git-describe", "", "tree version to stamp (default: the envelope's own, else git describe)")
	)
	fs.Parse(args)
	a, err := openArchive(*dir)
	if err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("put: no files given")
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rep, err := experiments.DecodeReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		m := store.PutMeta{RecordedAt: time.Now(), GitDescribe: *describe, Source: *source}
		if m.GitDescribe == "" {
			m.GitDescribe = rep.Meta.GitDescribe
		}
		if m.GitDescribe == "" {
			m.GitDescribe = gitDescribe()
		}
		entry, added, err := a.PutReport(data, store.SpecOfReport(rep), m)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		state := "archived"
		if !added {
			state = "already archived (dedup)"
		}
		fmt.Printf("%s: %s as %s (spec %s)\n", path, state, short(entry.ID), short(entry.SpecHash))
	}
	return nil
}

// short abbreviates a hash for terminal output ("" stays "").
func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// indent prefixes every non-empty line for nested findings output.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
