package main

import (
	"flag"
	"fmt"
	"html/template"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// cmdRender writes the dashboard: one self-contained HTML file with a
// metric-trajectory section per experiment (roll-up table plus inline
// SVG sparklines) and attribution share stacks from each experiment's
// latest attributed record.
func cmdRender(args []string) error {
	fs := flag.NewFlagSet("skiaboard render", flag.ExitOnError)
	var (
		dir   = fs.String("archive", "", "run-history archive directory")
		out   = fs.String("out", "skiaboard.html", "output HTML file")
		title = fs.String("title", "skiaboard — run history", "dashboard title")
	)
	fs.Parse(args)
	a, err := openArchive(*dir)
	if err != nil {
		return err
	}
	d, err := buildDashboard(a, *title)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := pageTmpl.Execute(f, d); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "skiaboard: wrote %s (%d records, %d experiments)\n",
		*out, d.Records, len(d.Experiments))
	return nil
}

// Dashboard view model.
type dashboard struct {
	Title       string
	GeneratedAt string
	ArchiveDir  string
	Records     int
	Experiments []expSection
}

type expSection struct {
	ID      string
	Points  int
	Specs   int
	Metrics []metricRow
	Attrib  []attribStack
}

type metricRow struct {
	Name     string
	Unit     string
	Count    int
	First    string
	Last     string
	P50      string
	Min      string
	Max      string
	Delta    string
	DeltaCls string // "up", "down", or "flat" for CSS
	Spark    template.HTML
}

type attribStack struct {
	Spec     string // benchmark/label
	Segments []stackSegment
}

type stackSegment struct {
	Cause string
	Share float64
	X, W  float64 // percent offsets into the 100-wide stack
	Color string
}

func buildDashboard(a *store.Archive, title string) (*dashboard, error) {
	d := &dashboard{
		Title:       title,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		ArchiveDir:  a.Dir(),
		Records:     a.Len(),
	}
	for _, exp := range a.Experiments() {
		sec, err := buildExpSection(a, exp)
		if err != nil {
			return nil, err
		}
		d.Experiments = append(d.Experiments, sec)
	}
	return d, nil
}

func buildExpSection(a *store.Archive, exp string) (expSection, error) {
	hist, err := a.History(exp)
	if err != nil {
		return expSection{}, err
	}
	specs := make(map[string]bool)
	for _, p := range hist.Points {
		specs[p.SpecHash] = true
	}
	sec := expSection{ID: exp, Points: len(hist.Points), Specs: len(specs)}
	// Per-metric value series in trajectory order, for sparklines.
	values := make(map[string][]float64)
	for _, p := range hist.Points {
		for _, m := range p.Metrics {
			values[m.Name] = append(values[m.Name], m.Value)
		}
	}
	for _, ru := range hist.Rollups {
		row := metricRow{
			Name:  ru.Name,
			Unit:  ru.Unit,
			Count: ru.Count,
			First: fmtVal(ru.First),
			Last:  fmtVal(ru.Last),
			P50:   fmtVal(ru.P50),
			Min:   fmtVal(ru.Min),
			Max:   fmtVal(ru.Max),
			Spark: sparkline(values[ru.Name], 160, 36),
		}
		row.Delta, row.DeltaCls = fmtDelta(ru.First, ru.Last)
		sec.Metrics = append(sec.Metrics, row)
	}
	sec.Attrib, err = buildAttribStacks(a, exp)
	return sec, err
}

// buildAttribStacks renders the latest attributed record's per-spec
// BTB-miss cause mix as horizontal stacked bars.
func buildAttribStacks(a *store.Archive, exp string) ([]attribStack, error) {
	series, err := a.Series(exp)
	if err != nil {
		return nil, err
	}
	var latest *experiments.Report
	var latestAt string
	for _, sr := range series {
		rec := sr.Records[len(sr.Records)-1]
		if rec.RecordedAt < latestAt {
			continue
		}
		rep, err := experiments.DecodeReport(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", rec.ID, err)
		}
		if len(rep.Attribution) > 0 {
			latest, latestAt = rep, rec.RecordedAt
		}
	}
	if latest == nil {
		return nil, nil
	}
	var stacks []attribStack
	for _, at := range latest.Attribution {
		spec := at.Benchmark
		if at.Label != "" {
			spec += "/" + at.Label
		}
		st := attribStack{Spec: spec}
		x := 0.0
		for i, c := range at.Summary.Causes {
			if c.Share <= 0 {
				continue
			}
			w := c.Share * 100
			st.Segments = append(st.Segments, stackSegment{
				Cause: c.Cause, Share: c.Share,
				X: x, W: w, Color: palette[i%len(palette)],
			})
			x += w
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// palette colors the attribution stack segments (cause order is the
// taxonomy's enum order, so colors are stable across renders).
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// sparkline renders a value series as an inline SVG polyline with a
// dot on the newest point. Empty and single-point series render a flat
// placeholder.
func sparkline(vs []float64, w, h int) template.HTML {
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1 // flat line at mid-height
	}
	pad := 3.0
	fx := func(i int) float64 {
		if len(vs) == 1 {
			return float64(w) / 2
		}
		return pad + float64(i)/float64(len(vs)-1)*(float64(w)-2*pad)
	}
	fy := func(v float64) float64 {
		return float64(h) - pad - (v-lo)/span*(float64(h)-2*pad)
	}
	var pts []string
	for i, v := range vs {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", fx(i), fy(v)))
	}
	lastX, lastY := fx(len(vs)-1), fy(vs[len(vs)-1])
	svg := fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d">`+
			`<polyline fill="none" stroke="#4e79a7" stroke-width="1.5" points="%s"/>`+
			`<circle cx="%.1f" cy="%.1f" r="2.5" fill="#e15759"/></svg>`,
		w, h, w, h, strings.Join(pts, " "), lastX, lastY)
	return template.HTML(svg)
}

// fmtVal renders a metric value compactly.
func fmtVal(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", v), "0"), ".")
	}
}

// fmtDelta renders first→last drift with a CSS class.
func fmtDelta(first, last float64) (string, string) {
	if first == last {
		return "—", "flat"
	}
	cls := "up"
	if last < first {
		cls = "down"
	}
	if first == 0 {
		return fmt.Sprintf("%+.3g", last), cls
	}
	return fmt.Sprintf("%+.1f%%", (last/first-1)*100), cls
}

var pageTmpl = template.Must(template.New("page").Funcs(template.FuncMap{
	// mulf turns a share fraction into percent for display.
	"mulf": func(v float64) float64 { return v * 100 },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; border-bottom: 1px solid #ddd; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: right; padding: .25rem .6rem; border-bottom: 1px solid #eee; white-space: nowrap; }
th:first-child, td:first-child { text-align: left; }
th { color: #555; font-weight: 600; }
.meta { color: #777; font-size: .85rem; }
.spark { vertical-align: middle; }
.up { color: #2a7d2a; } .down { color: #b03030; } .flat { color: #999; }
.stack { display: flex; height: 18px; width: 100%; max-width: 28rem; border-radius: 3px; overflow: hidden; }
.legend { font-size: .8rem; color: #555; }
.legend span { display: inline-block; margin-right: .8rem; }
.swatch { display: inline-block; width: .7em; height: .7em; border-radius: 2px; margin-right: .25em; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
<p class="meta">generated {{.GeneratedAt}} · archive {{.ArchiveDir}} · {{.Records}} records</p>

{{range .Experiments}}
<h2>{{.ID}}</h2>
<p class="meta">{{.Points}} archived runs across {{.Specs}} spec(s)</p>
<table>
<tr><th>metric</th><th>unit</th><th>runs</th><th>first</th><th>last</th><th>Δ</th><th>p50</th><th>min</th><th>max</th><th>trajectory</th></tr>
{{range .Metrics}}
<tr><td>{{.Name}}</td><td>{{.Unit}}</td><td>{{.Count}}</td><td>{{.First}}</td><td>{{.Last}}</td>
<td class="{{.DeltaCls}}">{{.Delta}}</td><td>{{.P50}}</td><td>{{.Min}}</td><td>{{.Max}}</td><td>{{.Spark}}</td></tr>
{{end}}
</table>
{{if .Attrib}}
<h3>BTB-miss attribution (latest run)</h3>
{{range .Attrib}}
<p class="meta">{{.Spec}}</p>
<div class="stack">{{range .Segments}}<div title="{{.Cause}}: {{printf "%.1f%%" (mulf .Share)}}" style="width:{{printf "%.2f" .W}}%;background:{{.Color}}"></div>{{end}}</div>
<p class="legend">{{range .Segments}}<span><span class="swatch" style="background:{{.Color}}"></span>{{.Cause}} {{printf "%.1f%%" (mulf .Share)}}</span>{{end}}</p>
{{end}}
{{end}}
{{else}}
<p>No experiment records archived yet.</p>
{{end}}

</body>
</html>
`))
