// Package compare diffs two sets of JSON experiment reports (as
// written by skiaexp -json -out) cell by cell: it pairs experiments by
// ID, rows by their label cells, and columns by name (repeated labels
// and names by occurrence), then checks every numeric cell against
// configurable tolerances. Columns with the "speedup" unit
// additionally get sign-flip detection — a speedup that changes sign
// is a "who wins" shape regression regardless of its magnitude.
// cmd/skiacmp is the CLI and the repo's one result oracle: its
// nonzero exit on Failed results is the regression gate.
package compare

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/attrib"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options tunes the diff.
type Options struct {
	// RTol is the relative tolerance: a numeric cell fails when
	// |new-old| > ATol + RTol*|old|. Default 0.05.
	RTol float64
	// ATol is the absolute tolerance floor shielding near-zero cells
	// from meaningless relative blowups. Default 1e-6.
	ATol float64
	// FlipMin is the minimum magnitude both sides of a speedup cell
	// must have before a sign flip counts (keeps ±0.01% noise from
	// flagging). Default 1e-3.
	FlipMin float64
	// IVRTol is the relative tolerance applied to per-spec interval
	// summaries (IPC mean, SBB coverage) from the envelopes' optional
	// `intervals` section. Default 0.05.
	IVRTol float64
	// AttribTol is the absolute tolerance applied to attribution
	// shares (BTB-miss cause shares, stall shares, shadow residency)
	// from the envelopes' optional `attribution` section. Shares are
	// fractions of the run's own totals, so an absolute bound compares
	// mix shifts directly without the near-zero blowups a relative
	// bound would hit on rare causes. Default 0.05 (five points).
	AttribTol float64
	// SampleCI switches the diff to sampled-validation mode (skiacmp
	// -sample-ci): only the envelopes' `sampling` sections are
	// compared, base as the reference (normally an exact run with
	// RunSpec.SampleEcho) and head as the sampled run under test. Each
	// metric passes when |base.mean - head.mean| <= head.CI + base.CI
	// + SampleATol + SampleRTol*|base.mean| — the sampled estimate
	// must contain the reference inside its stated confidence
	// interval, up to the slack tolerances.
	SampleCI bool
	// SampleATol and SampleRTol are the slack terms added to the
	// confidence-interval bound in SampleCI mode, covering the
	// residual bias functional warming cannot remove (wrong-path
	// effects). Defaults 0.01 and 0.05.
	SampleATol float64
	SampleRTol float64
}

// withDefaults fills unset tolerance fields.
func (o Options) withDefaults() Options {
	if o.RTol == 0 {
		o.RTol = 0.05
	}
	if o.ATol == 0 {
		o.ATol = 1e-6
	}
	if o.FlipMin == 0 {
		o.FlipMin = 1e-3
	}
	if o.IVRTol == 0 {
		o.IVRTol = 0.05
	}
	if o.AttribTol == 0 {
		o.AttribTol = 0.05
	}
	if o.SampleATol == 0 {
		o.SampleATol = 0.01
	}
	if o.SampleRTol == 0 {
		o.SampleRTol = 0.05
	}
	return o
}

// Finding is one failing numeric cell.
type Finding struct {
	Experiment string
	Row        string // row key: the row's label cells joined
	Column     string
	Unit       string
	Old, New   float64
	// Rel is |new-old| / |old| (Inf when old is 0 and new is not).
	Rel float64
	// SignFlip marks a speedup column whose sign changed.
	SignFlip bool
}

func (f Finding) String() string {
	kind := fmt.Sprintf("delta %+.4g (%.1f%% rel)", f.New-f.Old, f.Rel*100)
	if f.SignFlip {
		kind = "SIGN FLIP (who-wins regression)"
	}
	return fmt.Sprintf("%s: [%s] %s: %v -> %v: %s",
		f.Experiment, f.Row, f.Column, f.Old, f.New, kind)
}

// Result is the outcome of a diff.
type Result struct {
	// Compared counts numeric cells checked.
	Compared int
	// Findings lists tolerance violations and sign flips.
	Findings []Finding
	// Mismatches lists failing structural differences: experiments,
	// rows, or columns present in the old set but gone from the new.
	Mismatches []string
	// Warnings lists non-failing notes (additions in the new set).
	Warnings []string
}

// Failed reports whether the diff should gate (exit nonzero).
func (r *Result) Failed() bool {
	return len(r.Findings) > 0 || len(r.Mismatches) > 0
}

// String renders a human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	for _, m := range r.Mismatches {
		fmt.Fprintf(&b, "mismatch: %s\n", m)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "fail: %s\n", f)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "note: %s\n", w)
	}
	verdict := "OK"
	if r.Failed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d cells compared, %d failures, %d mismatches, %d notes\n",
		verdict, r.Compared, len(r.Findings), len(r.Mismatches), len(r.Warnings))
	return b.String()
}

// LoadPath reads experiment reports from a single .json file or from
// every *.json in a directory (manifest.json skipped), keyed by
// experiment ID.
func LoadPath(path string) (map[string]*experiments.Report, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*experiments.Report)
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep, err := experiments.DecodeReport(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if _, dup := out[rep.ID]; dup {
			return nil, fmt.Errorf("%s: duplicate report for experiment %q", f, rep.ID)
		}
		out[rep.ID] = rep
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no reports found", path)
	}
	return out, nil
}

// rowKey joins a row's label (string-kind) cells so rows still pair
// up when row order shifts. Tables whose rows carry no string cells
// fall back to positional pairing through the occurrence index.
func rowKey(row []stats.Cell) string {
	var parts []string
	for _, c := range row {
		if c.Kind == stats.CellStr && c.Text != "" {
			parts = append(parts, c.Text)
		}
	}
	return strings.Join(parts, "/")
}

// occ names an element for pairing: its key plus its occurrence among
// earlier elements with the same key. Keeping the two apart means a
// repeated key never collides with another key that happens to read
// like "key#n".
type occ[K comparable] struct {
	key K
	n   int
}

func (o occ[K]) String() string {
	if o.n == 0 {
		return fmt.Sprint(o.key)
	}
	return fmt.Sprintf("%v#%d", o.key, o.n)
}

// occurrences names every element of xs by key and occurrence, in
// order.
func occurrences[T any, K comparable](xs []T, key func(T) K) []occ[K] {
	counts := make(map[K]int)
	out := make([]occ[K], len(xs))
	for i, x := range xs {
		k := key(x)
		out[i] = occ[K]{k, counts[k]}
		counts[k]++
	}
	return out
}

// pairing matches base elements to head elements that share their
// occurrence name. Both sides are named the same way, so an element
// always pairs with its own copy.
type pairing[K comparable] struct {
	base     []occ[K] // name of each base element
	match    []int    // head index paired with base element i, or -1
	headOnly []occ[K] // head elements no base element pairs with, in order
}

func pairBy[T any, K comparable](base, head []T, key func(T) K) pairing[K] {
	headIDs := occurrences(head, key)
	at := make(map[occ[K]]int, len(head))
	for j, o := range headIDs {
		at[o] = j
	}
	p := pairing[K]{base: occurrences(base, key), match: make([]int, len(base))}
	paired := make(map[occ[K]]bool, len(base))
	for i, o := range p.base {
		j, ok := at[o]
		if !ok {
			j = -1
		}
		p.match[i] = j
		paired[o] = true
	}
	for _, o := range headIDs {
		if !paired[o] {
			p.headOnly = append(p.headOnly, o)
		}
	}
	return p
}

// specID names one entry of a per-spec envelope section the way table
// rows are keyed: benchmark plus config label.
type specID struct{ bench, label string }

func (s specID) String() string {
	if s.label == "" {
		return s.bench
	}
	return s.bench + "/" + s.label
}

// Diff compares two report sets. base is the reference; regressions
// are judged from its point of view.
func Diff(base, head map[string]*experiments.Report, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	var ids []string
	for id := range base {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		b, ok := head[id]
		if !ok {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("experiment %q missing from new results", id))
			continue
		}
		diffReport(res, base[id], b, opt)
	}
	var extra []string
	for id := range head {
		if _, ok := base[id]; !ok {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("experiment %q only in new results", id))
	}
	return res
}

// diffReport compares one experiment's tables cell by cell.
func diffReport(res *Result, base, head *experiments.Report, opt Options) {
	if opt.SampleCI {
		diffSampleCI(res, base, head, opt)
		return
	}
	id := base.ID
	oldCols := base.Table.Columns()
	cols := pairBy(oldCols, head.Table.Columns(), func(c stats.Column) string { return c.Name })
	for ci, o := range cols.base {
		if cols.match[ci] < 0 {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: column %q missing from new results", id, o))
		}
	}
	for _, o := range cols.headOnly {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("%s: column %q only in new results", id, o))
	}

	oldRows, newRows := tableRows(base.Table), tableRows(head.Table)
	rows := pairBy(oldRows, newRows, rowKey)
	for i, o := range rows.base {
		key := o.String()
		if rows.match[i] < 0 {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: row [%s] missing from new results", id, key))
			continue
		}
		row, newRow := oldRows[i], newRows[rows.match[i]]
		for ci, col := range oldCols {
			nj := cols.match[ci]
			if nj < 0 {
				continue
			}
			a, b := row[ci], newRow[nj]
			if a.Kind != b.Kind {
				res.Mismatches = append(res.Mismatches,
					fmt.Sprintf("%s: [%s] %s: cell kind changed %s -> %s",
						id, key, col.Name, a.Kind, b.Kind))
				continue
			}
			if a.Kind != stats.CellNum {
				continue
			}
			res.Compared++
			checkCell(res, id, key, col, a.Value, b.Value, opt)
		}
	}
	var newOnly []string
	for _, o := range rows.headOnly {
		newOnly = append(newOnly, o.String())
	}
	sort.Strings(newOnly)
	for _, key := range newOnly {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("%s: row [%s] only in new results", id, key))
	}
	diffIntervals(res, base, head, opt)
	diffAttribution(res, base, head, opt)
	diffSampling(res, base, head, opt)
}

// tableRows returns every data row of t.
func tableRows(t *stats.Table) [][]stats.Cell {
	rows := make([][]stats.Cell, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}

// pairSpecs pairs the entries of one per-spec envelope section by
// specID and occurrence and calls diff on each pair. Base entries
// missing from head fail; head-only entries warn. Sections absent on
// both sides pair nothing, so older envelopes diff as before.
func pairSpecs[T any](res *Result, id, section string, base, head []T,
	spec func(T) specID, diff func(key string, b, h T)) {
	p := pairBy(base, head, spec)
	for i, o := range p.base {
		if p.match[i] < 0 {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: %s for [%s] missing from new results", id, section, o))
			continue
		}
		diff(o.String(), base[i], head[p.match[i]])
	}
	for _, o := range p.headOnly {
		res.Warnings = append(res.Warnings,
			fmt.Sprintf("%s: %s for [%s] only in new results", id, section, o))
	}
}

// pairNamed pairs two named lists inside one spec's section entry by
// name and occurrence and calls diff on each pair; base names missing
// from head fail.
func pairNamed[T any](res *Result, id, key, what string, base, head []T,
	name func(T) string, diff func(name string, b, h T)) {
	p := pairBy(base, head, name)
	for i, o := range p.base {
		if p.match[i] < 0 {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: [%s] %s %q missing from new results", id, key, what, o))
			continue
		}
		diff(o.String(), base[i], head[p.match[i]])
	}
}

func intervalsSpec(s sim.SpecIntervals) specID     { return specID{s.Benchmark, s.Label} }
func attributionSpec(s sim.SpecAttribution) specID { return specID{s.Benchmark, s.Label} }
func samplingSpec(s sim.SpecSampling) specID       { return specID{s.Benchmark, s.Label} }
func metricName(m sim.MetricCI) string             { return m.Name }

// diffIntervals compares the per-spec interval summaries carried in
// the envelopes' optional `intervals` section (schema v2+): the
// cycle-weighted IPC mean and the window-wide SBB coverage, each under
// the (usually looser) IVRTol relative tolerance. Specs present in the
// base but gone from the new set fail; additions — e.g. the new run
// turned collection on — only warn.
func diffIntervals(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	ivOpt := opt
	ivOpt.RTol = opt.IVRTol
	pairSpecs(res, id, "intervals", base.Intervals, head.Intervals, intervalsSpec,
		func(key string, b, h sim.SpecIntervals) {
			res.Compared += 2
			checkCell(res, id, key,
				stats.Column{Name: "intervals.ipc_mean", Unit: stats.UnitIPC},
				b.Summary.IPCMean, h.Summary.IPCMean, ivOpt)
			checkCell(res, id, key,
				stats.Column{Name: "intervals.sbb_coverage"},
				b.Summary.SBBCoverage, h.Summary.SBBCoverage, ivOpt)
		})
}

// diffAttribution compares the per-spec miss-attribution summaries in
// the envelopes' optional `attribution` section (schema v3+). Every
// cause share, stall share, and the headline shadow-residency share is
// checked under the absolute AttribTol bound: attribution reports a
// mix, so the question is "did any slice of the pie move more than N
// points", independent of how rare the slice is. Missing specs fail;
// additions warn.
func diffAttribution(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	pairSpecs(res, id, "attribution", base.Attribution, head.Attribution, attributionSpec,
		func(key string, b, h sim.SpecAttribution) {
			checkShare(res, id, key, "attrib.shadow_resident_share",
				b.Summary.ShadowResidentShare, h.Summary.ShadowResidentShare, opt)
			pairNamed(res, id, key, "attribution cause", b.Summary.Causes, h.Summary.Causes,
				func(c attrib.CauseCount) string { return c.Cause },
				func(name string, bc, hc attrib.CauseCount) {
					checkShare(res, id, key, "attrib.cause."+name, bc.Share, hc.Share, opt)
				})
			pairNamed(res, id, key, "attribution stall", b.Summary.Stalls, h.Summary.Stalls,
				func(s attrib.StallCount) string { return s.Kind },
				func(name string, bs, hs attrib.StallCount) {
					checkShare(res, id, key, "attrib.stall."+name, bs.Share, hs.Share, opt)
				})
		})
}

// diffSampling compares the per-spec sampled-simulation summaries in
// the envelopes' optional `sampling` section (schema v5+) as a
// regression gate: each metric's point estimate is checked under the
// ordinary RTol/ATol rule, like a table cell. Confidence widths are
// not diffed — they are a property of the interval spread, not a
// result. Missing specs or metrics fail; additions warn.
func diffSampling(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	pairSpecs(res, id, "sampling", base.Sampling, head.Sampling, samplingSpec,
		func(key string, b, h sim.SpecSampling) {
			pairNamed(res, id, key, "sampled metric", b.Summary.Metrics, h.Summary.Metrics, metricName,
				func(name string, bm, hm sim.MetricCI) {
					res.Compared++
					checkCell(res, id, key,
						stats.Column{Name: "sampling." + name}, bm.Mean, hm.Mean, opt)
				})
		})
}

// diffSampleCI validates a sampled result set against a reference
// (Options.SampleCI): base is the reference — normally an exact run
// whose envelope carries CI-free echo rows (RunSpec.SampleEcho) — and
// head is the sampled run under test. Each metric must contain the
// reference value inside its stated 95% confidence interval plus the
// slack tolerances; the table, intervals, and attribution sections are
// ignored entirely, so an exact and a sampled run of the same
// experiment can be gated against each other even though their tables
// legitimately differ.
func diffSampleCI(res *Result, base, head *experiments.Report, opt Options) {
	id := base.ID
	if len(base.Sampling) == 0 {
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("%s: reference has no sampling section (run it with -sample-echo or -sample)", id))
		return
	}
	if len(head.Sampling) == 0 {
		res.Mismatches = append(res.Mismatches,
			fmt.Sprintf("%s: sampled results have no sampling section (run with -sample)", id))
		return
	}
	pairSpecs(res, id, "sampling", base.Sampling, head.Sampling, samplingSpec,
		func(key string, b, h sim.SpecSampling) {
			pairNamed(res, id, key, "sampled metric", b.Summary.Metrics, h.Summary.Metrics, metricName,
				func(name string, bm, hm sim.MetricCI) {
					res.Compared++
					tol := hm.CI + bm.CI + opt.SampleATol + opt.SampleRTol*math.Abs(bm.Mean)
					if math.Abs(hm.Mean-bm.Mean) > tol {
						res.Findings = append(res.Findings, Finding{
							Experiment: id, Row: key, Column: "sampling." + name + " (ci-gate)",
							Old: bm.Mean, New: hm.Mean, Rel: rel(bm.Mean, hm.Mean),
						})
					}
				})
		})
}

// checkShare applies the absolute AttribTol bound to one share pair.
func checkShare(res *Result, id, key, name string, a, b float64, opt Options) {
	res.Compared++
	if math.Abs(b-a) > opt.AttribTol {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: name, Unit: "share",
			Old: a, New: b, Rel: rel(a, b),
		})
	}
}

// checkCell applies the tolerance and sign-flip rules to one numeric
// cell pair.
func checkCell(res *Result, id, key string, col stats.Column, a, b float64, opt Options) {
	if col.Unit == stats.UnitSpeedup &&
		math.Abs(a) >= opt.FlipMin && math.Abs(b) >= opt.FlipMin &&
		math.Signbit(a) != math.Signbit(b) {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: col.Name, Unit: col.Unit,
			Old: a, New: b, Rel: rel(a, b), SignFlip: true,
		})
		return
	}
	if math.Abs(b-a) > opt.ATol+opt.RTol*math.Abs(a) {
		res.Findings = append(res.Findings, Finding{
			Experiment: id, Row: key, Column: col.Name, Unit: col.Unit,
			Old: a, New: b, Rel: rel(a, b),
		})
	}
}

// rel returns |b-a|/|a|, Inf for a==0 with b!=0, 0 when both are 0.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}
