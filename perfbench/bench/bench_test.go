package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so Tail must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, n := range []int{0, 1, 10, 20, MinTailSamples - 1} {
		if _, _, ok := Tail(seq(n)); ok {
			t.Errorf("Tail of %d samples reported a value", n)
		}
	}
	cases := []struct {
		n     int
		value float64
		pct   float64
	}{
		{MinTailSamples, 12, 100 * 12.0 / 22},
		{100, 90, 90},
		{1000, 990, 99},
	}
	for _, c := range cases {
		v, pct, ok := Tail(seq(c.n))
		if !ok || v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("Tail of 1..%d = %v at p%v (ok %v), want %v at p%v", c.n, v, pct, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != TailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, TailBeyond)
		}
		if v <= Median(seq(c.n)) {
			t.Errorf("n=%d: tail %v does not exceed the median %v", c.n, v, Median(seq(c.n)))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3,1,2 = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v", m)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, table := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range table {
			if !ValidName(m.Name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range Workloads {
		if !ValidName(w) {
			t.Errorf("workload name %q is not [A-Za-z0-9_.-]+", w)
		}
	}
	for _, bad := range []string{"", "a b", "é", "-lead", "x/y"} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables the runners
// report from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner %d", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != Workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, w.Name, Workloads[i])
		}
	}
	compare := func(kind string, doc []entry, table []Metric) {
		if len(doc) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runner %d", kind, len(doc), len(table))
		}
		for i, e := range doc {
			m := table[i]
			if e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, runner %+v", kind, i, e, m)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, EndToEnd)
	compare("per_layer", doc.PerLayer, PerLayer)
	for _, e := range doc.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}
