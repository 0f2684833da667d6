package store

import (
	"fmt"
	"sort"

	"repro/internal/benchfmt"
	"repro/internal/compare"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// Metric is one numeric cell of a report table, named the way
// internal/compare names a failing cell: the row's label cells joined
// with "/", then the column name.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// HistoryPoint is one archived run on an experiment's trajectory.
type HistoryPoint struct {
	RecordID    string   `json:"record_id"`
	SpecHash    string   `json:"spec_hash"`
	ContentHash string   `json:"content_hash"`
	GitDescribe string   `json:"git_describe,omitempty"`
	RecordedAt  string   `json:"recorded_at"`
	Source      string   `json:"source,omitempty"`
	Metrics     []Metric `json:"metrics"`
}

// MetricRollup aggregates one metric across an experiment's whole
// archived trajectory. The distribution statistics come from
// per-spec-hash histograms folded together with stats.Histogram.Merge,
// so a spec simulated a hundred times and a spec simulated once both
// contribute exactly their samples.
type MetricRollup struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	// First and Last are the metric's values at the trajectory's
	// chronological endpoints — the at-a-glance drift signal.
	First float64 `json:"first"`
	Last  float64 `json:"last"`
}

// History is one experiment's archived trajectory, the payload
// skiaboard renders: every archived point in trajectory order plus
// per-metric roll-ups.
type History struct {
	Experiment string         `json:"experiment"`
	Points     []HistoryPoint `json:"points"`
	Rollups    []MetricRollup `json:"rollups,omitempty"`
}

// ReportMetrics flattens a report's table into named numeric metrics.
// Duplicate names (tables with repeated row keys) disambiguate by
// occurrence index, mirroring compare's row pairing.
func ReportMetrics(rep *experiments.Report) []Metric {
	var out []Metric
	cols := rep.Table.Columns()
	counts := make(map[string]int)
	for i := 0; i < rep.Table.NumRows(); i++ {
		row := rep.Table.Row(i)
		key := compare.RowKey(row)
		if n := counts[key]; n > 0 {
			key = fmt.Sprintf("%s#%d", key, n)
		}
		counts[compare.RowKey(row)]++
		for ci, c := range row {
			if c.Kind != stats.CellNum || ci >= len(cols) {
				continue
			}
			name := cols[ci].Name
			if key != "" {
				name = key + "/" + name
			}
			out = append(out, Metric{Name: name, Unit: cols[ci].Unit, Value: c.Value})
		}
	}
	return out
}

// History assembles the experiment's archived trajectory: points in
// (recorded_at, id) order with their table metrics, and per-metric
// roll-ups built by observing each spec-hash series into its own
// histogram and merging the series histograms.
func (a *Archive) History(experiment string) (*History, error) {
	hist := &History{Experiment: experiment, Points: []HistoryPoint{}}
	type seriesKey struct{ spec, name string }
	seriesHists := make(map[seriesKey]*stats.Histogram)
	var seriesOrder []seriesKey
	type span struct {
		unit        string
		first, last float64
		haveFirst   bool
	}
	spans := make(map[string]*span)
	for _, e := range a.Entries() {
		if e.Kind != KindReport || e.Experiment != experiment {
			continue
		}
		rec, err := a.Load(e.ID)
		if err != nil {
			return nil, err
		}
		rep, err := experiments.DecodeReport(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("store: record %s: %w", e.ID, err)
		}
		ms := ReportMetrics(rep)
		hist.Points = append(hist.Points, HistoryPoint{
			RecordID:    e.ID,
			SpecHash:    e.SpecHash,
			ContentHash: e.ContentHash,
			GitDescribe: e.GitDescribe,
			RecordedAt:  e.RecordedAt,
			Source:      e.Source,
			Metrics:     ms,
		})
		for _, m := range ms {
			k := seriesKey{e.SpecHash, m.Name}
			h, ok := seriesHists[k]
			if !ok {
				h = &stats.Histogram{}
				seriesHists[k] = h
				seriesOrder = append(seriesOrder, k)
			}
			h.Observe(m.Value)
			sp, ok := spans[m.Name]
			if !ok {
				sp = &span{unit: m.Unit}
				spans[m.Name] = sp
			}
			if !sp.haveFirst {
				sp.first, sp.haveFirst = m.Value, true
			}
			sp.last = m.Value
		}
	}
	// Merge each metric's per-series histograms in deterministic
	// (name, spec) order.
	sort.Slice(seriesOrder, func(i, j int) bool {
		if seriesOrder[i].name != seriesOrder[j].name {
			return seriesOrder[i].name < seriesOrder[j].name
		}
		return seriesOrder[i].spec < seriesOrder[j].spec
	})
	merged := make(map[string]*stats.Histogram)
	var names []string
	for _, k := range seriesOrder {
		m, ok := merged[k.name]
		if !ok {
			m = &stats.Histogram{}
			merged[k.name] = m
			names = append(names, k.name)
		}
		m.Merge(seriesHists[k])
	}
	for _, name := range names { // already name-sorted via seriesOrder
		h := merged[name]
		sp := spans[name]
		hist.Rollups = append(hist.Rollups, MetricRollup{
			Name:  name,
			Unit:  sp.unit,
			Count: h.Count(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Quantile(0.5),
			First: sp.first,
			Last:  sp.last,
		})
	}
	return hist, nil
}

// Series is one spec hash's archived records for an experiment, in
// trajectory order, payloads loaded — the unit cmd/skiaboard's
// regression check diffs (previous record vs latest).
type Series struct {
	SpecHash string
	Spec     *Spec
	Records  []Record
}

// Series groups an experiment's report records by spec hash, each
// group in trajectory order, groups sorted by spec hash.
func (a *Archive) Series(experiment string) ([]Series, error) {
	byHash := make(map[string]*Series)
	var order []string
	for _, e := range a.Entries() {
		if e.Kind != KindReport || e.Experiment != experiment {
			continue
		}
		rec, err := a.Load(e.ID)
		if err != nil {
			return nil, err
		}
		s, ok := byHash[e.SpecHash]
		if !ok {
			s = &Series{SpecHash: e.SpecHash, Spec: rec.Spec}
			byHash[e.SpecHash] = s
			order = append(order, e.SpecHash)
		}
		s.Records = append(s.Records, rec)
	}
	sort.Strings(order)
	out := make([]Series, 0, len(order))
	for _, h := range order {
		out = append(out, *byHash[h])
	}
	return out, nil
}

// BenchPoint is one archived skiabench envelope on the performance
// trajectory.
type BenchPoint struct {
	RecordID    string            `json:"record_id"`
	RecordedAt  string            `json:"recorded_at"`
	GitDescribe string            `json:"git_describe,omitempty"`
	Source      string            `json:"source,omitempty"`
	Envelope    benchfmt.Envelope `json:"envelope"`
}

// BenchHistory returns every archived bench envelope in trajectory
// order.
func (a *Archive) BenchHistory() ([]BenchPoint, error) {
	var out []BenchPoint
	for _, e := range a.Entries() {
		if e.Kind != KindBench {
			continue
		}
		rec, err := a.Load(e.ID)
		if err != nil {
			return nil, err
		}
		env, err := benchfmt.Decode(rec.Payload)
		if err != nil {
			return nil, fmt.Errorf("store: record %s: %w", e.ID, err)
		}
		out = append(out, BenchPoint{
			RecordID:    e.ID,
			RecordedAt:  e.RecordedAt,
			GitDescribe: e.GitDescribe,
			Source:      e.Source,
			Envelope:    *env,
		})
	}
	return out, nil
}
