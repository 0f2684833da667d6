package store

import (
	"fmt"
	"sort"

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
// archived trajectory: every archived value of the metric, whatever
// its spec hash, is one sample of the distribution.
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
// roll-ups, name-sorted, each observed into one histogram.
func (a *Archive) History(experiment string) (*History, error) {
	hist := &History{Experiment: experiment, Points: []HistoryPoint{}}
	type rollup struct {
		h           stats.Histogram
		unit        string
		first, last float64
	}
	rollups := make(map[string]*rollup)
	var names []string
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
			r, ok := rollups[m.Name]
			if !ok {
				r = &rollup{unit: m.Unit, first: m.Value}
				rollups[m.Name] = r
				names = append(names, m.Name)
			}
			r.h.Observe(m.Value)
			r.last = m.Value
		}
	}
	sort.Strings(names)
	for _, name := range names {
		r := rollups[name]
		hist.Rollups = append(hist.Rollups, MetricRollup{
			Name:  name,
			Unit:  r.unit,
			Count: r.h.Count(),
			Mean:  r.h.Mean(),
			Min:   r.h.Min(),
			Max:   r.h.Max(),
			P50:   r.h.Quantile(0.5),
			First: r.first,
			Last:  r.last,
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
