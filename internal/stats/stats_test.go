package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMPKI(t *testing.T) {
	if got := MPKI(50, 1000); !almostEqual(got, 50) {
		t.Errorf("MPKI = %v", got)
	}
	if got := MPKI(1, 1_000_000); !almostEqual(got, 0.001) {
		t.Errorf("MPKI = %v", got)
	}
	if got := MPKI(5, 0); got != 0 {
		t.Errorf("MPKI with zero insts = %v", got)
	}
}

func TestIPC(t *testing.T) {
	if got := IPC(100, 50); !almostEqual(got, 2) {
		t.Errorf("IPC = %v", got)
	}
	if got := IPC(100, 0); got != 0 {
		t.Errorf("IPC zero cycles = %v", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(1.1, 1.0); !almostEqual(got, 0.1) {
		t.Errorf("Speedup = %v", got)
	}
	if got := Speedup(1.0, 0); got != 0 {
		t.Errorf("Speedup base 0 = %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); !almostEqual(got, 4) {
		t.Errorf("Geomean = %v", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %v", got)
	}
	// Non-positive entries must not produce NaN.
	if got := Geomean([]float64{1, 0}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Geomean with zero = %v", got)
	}
}

func TestGeomeanIsScaleInvariant(t *testing.T) {
	f := func(a, b, c float64) bool {
		clamp := func(v float64) float64 {
			v = math.Abs(v)
			if v > 1e6 || math.IsNaN(v) {
				v = math.Mod(v, 1e6)
			}
			return v + 0.1
		}
		xs := []float64{clamp(a), clamp(b), clamp(c)}
		g := Geomean(xs)
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * 3
		}
		g2 := Geomean(scaled)
		return math.Abs(g2-3*g) < 1e-6*math.Max(1, g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	ipcs := []float64{1.1, 1.1}
	bases := []float64{1.0, 1.0}
	if got := GeomeanSpeedup(ipcs, bases); !almostEqual(got, 0.1) {
		t.Errorf("GeomeanSpeedup = %v", got)
	}
	if got := GeomeanSpeedup([]float64{1}, []float64{1, 2}); got != 0 {
		t.Errorf("mismatched lengths = %v", got)
	}
	if got := GeomeanSpeedup([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("zero base = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almostEqual(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.0564); got != "+5.64%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(-0.02); got != "-2.00%" {
		t.Errorf("Percent = %q", got)
	}
}

func TestSet(t *testing.T) {
	s := NewSet()
	s.Inc("a")
	s.Add("b", 5)
	s.Inc("a")
	if got := s.Get("a"); got != 2 {
		t.Errorf("a = %d", got)
	}
	if got := s.Get("b"); got != 5 {
		t.Errorf("b = %d", got)
	}
	if got := s.Get("missing"); got != 0 {
		t.Errorf("missing = %d", got)
	}
	cs := s.Counters()
	if len(cs) != 2 || cs[0].Name != "a" || cs[1].Name != "b" {
		t.Errorf("Counters order = %+v", cs)
	}
	s.Reset()
	if s.Get("a") != 0 || s.Get("b") != 0 {
		t.Error("Reset did not zero values")
	}
	// order preserved after reset
	cs = s.Counters()
	if len(cs) != 2 || cs[0].Name != "a" {
		t.Errorf("order lost after reset: %+v", cs)
	}
}

func TestSetZeroValue(t *testing.T) {
	var s Set
	s.Inc("x")
	if s.Get("x") != 1 {
		t.Error("zero-value Set should work")
	}
}

func TestSetMerge(t *testing.T) {
	a := NewSet()
	a.Add("x", 1)
	b := NewSet()
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Errorf("merge got x=%d y=%d", a.Get("x"), a.Get("y"))
	}
	a.Merge(nil) // must not panic
}

func TestTable(t *testing.T) {
	tb := NewTable("bench", "ipc")
	tb.AddRow("kafka", "0.91")
	tb.AddRowf("tpcc", 1.234567)
	out := tb.String()
	if !strings.Contains(out, "kafka") || !strings.Contains(out, "1.235") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// extra cells dropped, missing cells empty
	tb2 := NewTable("a")
	tb2.AddRow("1", "2", "3")
	tb2.AddRow()
	if !strings.Contains(tb2.String(), "1") {
		t.Error("row content lost")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Error("empty histogram should return zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if q := h.Quantile(0); !almostEqual(q, 1) {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); !almostEqual(q, 100) {
		t.Errorf("q1 = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1 {
		t.Errorf("median = %v", q)
	}
	if m := h.Mean(); !almostEqual(m, 50.5) {
		t.Errorf("mean = %v", m)
	}
}

// TestHistogramAccuracyBound pins the streaming storage's contract:
// against an exact sorted-sample reference, every interior quantile of
// positive samples errs by at most HistogramMaxRelError (relative),
// endpoints and the mean are exact, and memory stays bounded by the
// value range rather than the sample count.
func TestHistogramAccuracyBound(t *testing.T) {
	var h Histogram
	// Log-spread samples over six orders of magnitude, deterministic.
	var exact []float64
	x := uint64(12345)
	for i := 0; i < 50_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // LCG
		v := math.Exp(float64(x%1_000_000)/1_000_000*13.8) * 0.01
		exact = append(exact, v)
		h.Observe(v)
	}
	sorted := append([]float64(nil), exact...)
	sort.Float64s(sorted)
	quantAt := func(q float64) float64 {
		idx := q * float64(len(sorted)-1)
		lo := int(idx)
		frac := idx - float64(lo)
		if lo+1 >= len(sorted) {
			return sorted[lo]
		}
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		want := quantAt(q)
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > HistogramMaxRelError+1e-9 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f > bound %.4f)",
				q, got, want, rel, HistogramMaxRelError)
		}
	}
	if got := h.Quantile(0); got != sorted[0] {
		t.Errorf("q0 = %v, want exact min %v", got, sorted[0])
	}
	if got := h.Quantile(1); got != sorted[len(sorted)-1] {
		t.Errorf("q1 = %v, want exact max %v", got, sorted[len(sorted)-1])
	}
	var sum float64
	for _, v := range exact {
		sum += v
	}
	if mean := h.Mean(); math.Abs(mean-sum/float64(len(exact)))/mean > 1e-12 {
		t.Errorf("mean = %v, want exact %v", mean, sum/float64(len(exact)))
	}
	// Streaming storage: bucket count is bounded by the value range
	// (orders of magnitude x sub-buckets), not the 50k samples.
	if n := len(h.buckets); n > 24*histSubBuckets {
		t.Errorf("bucket count %d not bounded by value range", n)
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
}

// TestHistogramNonPositive covers the shared bucket for samples <= 0.
func TestHistogramNonPositive(t *testing.T) {
	var h Histogram
	for _, v := range []float64{-4, 0, -2, 10, 20} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0); q != -4 {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("q1 = %v", q)
	}
	// The three non-positive samples share their mean (-2) as the
	// representative for interior quantiles landing among them.
	if q := h.Quantile(0.25); q != -2 {
		t.Errorf("q0.25 = %v, want non-positive bucket mean -2", q)
	}
	if m := h.Mean(); !almostEqual(m, 24.0/5) {
		t.Errorf("mean = %v", m)
	}
}

// TestHistogramMergeEqualsDirectObservation is the merge property the
// run-history roll-ups (internal/store) rely on: splitting a sample
// stream across K histograms and merging them is indistinguishable —
// exactly, not within tolerance — from observing the whole stream into
// one histogram. Checked across split counts, orderings, and a stream
// mixing six orders of magnitude with non-positive samples.
func TestHistogramMergeEqualsDirectObservation(t *testing.T) {
	// Deterministic mixed stream: log-spread positives plus a sprinkle
	// of zeros and negatives (the shared non-positive lane).
	var samples []float64
	x := uint64(98765)
	for i := 0; i < 20_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // LCG
		v := math.Exp(float64(x%1_000_000)/1_000_000*13.8) * 0.01
		if x%17 == 0 {
			v = -v * 0.001
		} else if x%19 == 0 {
			v = 0
		}
		samples = append(samples, v)
	}
	var direct Histogram
	for _, v := range samples {
		direct.Observe(v)
	}
	quantiles := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for _, parts := range []int{1, 2, 3, 7, 16} {
		shards := make([]Histogram, parts)
		for i, v := range samples {
			shards[i%parts].Observe(v)
		}
		var merged Histogram
		// Merge back-to-front so the test also covers "merge into an
		// already-populated histogram" for every shard but the last.
		for i := parts - 1; i >= 0; i-- {
			merged.Merge(&shards[i])
		}
		if merged.Count() != direct.Count() {
			t.Fatalf("parts=%d: count %d != %d", parts, merged.Count(), direct.Count())
		}
		if merged.Sum() != direct.Sum() {
			// Shard sums add in a different order; allow only float
			// reassociation noise, nothing structural.
			if math.Abs(merged.Sum()-direct.Sum()) > 1e-9*math.Abs(direct.Sum()) {
				t.Fatalf("parts=%d: sum %v != %v", parts, merged.Sum(), direct.Sum())
			}
		}
		if merged.Min() != direct.Min() || merged.Max() != direct.Max() {
			t.Fatalf("parts=%d: min/max %v/%v != %v/%v", parts,
				merged.Min(), merged.Max(), direct.Min(), direct.Max())
		}
		for _, q := range quantiles {
			got, want := merged.Quantile(q), direct.Quantile(q)
			// Positive quantiles are bit-exact (bucket counts add).
			// Quantiles landing in the shared non-positive lane report
			// that lane's mean, whose sum reassociates across shards —
			// permit only float rounding there, nothing structural.
			if got != want && math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("parts=%d q=%v: merge-then-quantile %v != quantile-of-merged %v",
					parts, q, got, want)
			}
		}
		if !reflect.DeepEqual(merged.buckets, direct.buckets) || merged.nonPos != direct.nonPos {
			t.Fatalf("parts=%d: bucket counts differ", parts)
		}
	}
}

// TestHistogramMergeEdgeCases pins merge behavior at the boundaries:
// empty and nil operands are no-ops, and merging into an empty
// histogram copies counts without disturbing the source.
func TestHistogramMergeEdgeCases(t *testing.T) {
	var a, b Histogram
	a.Observe(3)
	a.Merge(&b) // empty source: no-op
	a.Merge(nil)
	if a.Count() != 1 || a.Min() != 3 || a.Max() != 3 {
		t.Errorf("merge of empty/nil disturbed the target: %+v", a)
	}
	b.Merge(&a) // into empty target
	if b.Count() != 1 || b.Quantile(0.5) != 3 {
		t.Errorf("merge into empty target: count=%d median=%v", b.Count(), b.Quantile(0.5))
	}
	if a.Count() != 1 {
		t.Error("merge mutated its source")
	}
	// Self-merge via an independent copy (Merge into a fresh histogram
	// deep-copies the buckets) doubles every count.
	var c Histogram
	c.Merge(&a)
	a.Merge(&c)
	if a.Count() != 2 || a.Quantile(1) != 3 {
		t.Errorf("merge of copied self: count=%d max=%v", a.Count(), a.Quantile(1))
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, 1, 9, 3, 7, 2} {
		h.Observe(v)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotonic at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestTableTypedCellsAndUnits(t *testing.T) {
	tb := NewTable("bench", "ipc", "gain").SetUnits(UnitNone, UnitIPC, UnitSpeedup)
	tb.AddCells(Str("voter"), Num(2.262, "2.262"), Num(0.0753, "7.53%"))
	cols := tb.Columns()
	if cols[0].Unit != UnitNone || cols[1].Unit != UnitIPC || cols[2].Unit != UnitSpeedup {
		t.Errorf("units = %+v", cols)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	row := tb.Row(0)
	if row[0].Kind != CellStr || row[1].Kind != CellNum || row[1].Value != 2.262 {
		t.Errorf("row = %+v", row)
	}
	// Plain-text rendering uses the Text field.
	if out := tb.String(); !strings.Contains(out, "7.53%") {
		t.Errorf("rendering:\n%s", out)
	}
	// AddRowf produces numeric cells for numeric arguments.
	tb.AddRowf("kafka", 1.234567, uint64(42))
	row = tb.Row(1)
	if row[1].Kind != CellNum || row[1].Text != "1.235" || row[2].Value != 42 {
		t.Errorf("AddRowf row = %+v", row)
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("bench", "mpki", "gain").SetUnits(UnitNone, UnitMPKI, UnitSpeedup)
	tb.AddCells(Str("voter"), Num(3.68, "3.68"), Num(-0.021, "-2.10%"))
	tb.AddCells(Str("kafka"), Num(0, "0.00"), Num(0.0564, "+5.64%"))
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Zero-valued numeric cells must keep their "value" key so kinds
	// survive the round trip.
	if !strings.Contains(string(data), `"value": 0`) && !strings.Contains(string(data), `"value":0`) {
		t.Errorf("zero num cell lost its value:\n%s", data)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb.Columns(), back.Columns()) {
		t.Errorf("columns: %+v != %+v", tb.Columns(), back.Columns())
	}
	if back.NumRows() != tb.NumRows() {
		t.Fatalf("rows: %d != %d", back.NumRows(), tb.NumRows())
	}
	for i := 0; i < tb.NumRows(); i++ {
		if !reflect.DeepEqual(tb.Row(i), back.Row(i)) {
			t.Errorf("row %d: %+v != %+v", i, tb.Row(i), back.Row(i))
		}
	}
	if tb.String() != back.String() {
		t.Error("rendering changed across round trip")
	}
}

func TestTableJSONRejectsMalformed(t *testing.T) {
	var tb Table
	// Row width must match the column count.
	bad := `{"columns":[{"name":"a"},{"name":"b"}],"rows":[[{"kind":"str","text":"x"}]]}`
	if err := json.Unmarshal([]byte(bad), &tb); err == nil {
		t.Error("ragged row accepted")
	}
	// Unknown cell kinds must be rejected, not silently coerced.
	bad = `{"columns":[{"name":"a"}],"rows":[[{"kind":"complex","text":"x"}]]}`
	if err := json.Unmarshal([]byte(bad), &tb); err == nil {
		t.Error("unknown cell kind accepted")
	}
}

func TestEmptyTableJSON(t *testing.T) {
	tb := NewTable("a", "b")
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 || len(back.Columns()) != 2 {
		t.Errorf("empty table mangled: %+v", back)
	}
}
