// Package bench holds what both benchmark runners share: the workload and
// metric tables BENCHMARK.json lists, the order statistics the metrics are
// reported with, and the result line every run ends with. It uses only the
// standard library.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// Workloads are the benchmark's workloads, in BENCHMARK.json order.
var Workloads = []string{"campaign-distinct", "fleet-replay", "shard-exec", "policy-rollout"}

// Metric is one reported metric.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd are the metrics of a run with tracing off.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"unique_cells_per_s", "1/s", "higher"},
	{"vehicles_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// PerLayer are the metrics of a traced run. Units named "count" are
// deterministic counts: two traced passes over the same inputs must agree
// on them exactly.
var PerLayer = []Metric{
	{"sim.events_per_cell", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"canbus.frames_per_cell", "count", "lower"},
	{"canbus.frames_per_s", "1/s", "higher"},
	{"hpe.decide_ns", "ns", "lower"},
	{"attack.arena_build_ms", "ms", "lower"},
	{"attack.cell_us", "us", "lower"},
	{"campaign.parse_ms", "ms", "lower"},
	{"campaign.compile_ms", "ms", "lower"},
	{"campaign.unique_cells", "count", "higher"},
	{"engine.run_ms", "ms", "lower"},
	{"engine.first_vehicles_ms", "ms", "lower"},
	{"engine.later_vehicle_ns", "ns", "lower"},
	{"engine.merge_ns_per_vehicle", "ns", "lower"},
	{"report.render_ms", "ms", "lower"},
	{"wire.bytes_per_vehicle", "count", "lower"},
	{"wire.encode_ns_per_vehicle", "ns", "lower"},
	{"wire.decode_ns_per_vehicle", "ns", "lower"},
	{"shard.first_frame_ms", "ms", "lower"},
	{"shard.stream_ms", "ms", "lower"},
	{"shard.straggler_ratio", "ratio", "lower"},
	{"shard.failed", "count", "lower"},
	{"policy.harness_build_ms", "ms", "lower"},
	{"policy.compile_ms", "ms", "lower"},
	{"policy.apply_ms", "ms", "lower"},
	{"policy.apply_calls", "count", "lower"},
	{"policy.verify_us", "us", "lower"},
	{"risk.synthesize_ms", "ms", "lower"},
	{"risk.sweep_ms", "ms", "lower"},
	{"risk.calibrate_ms", "ms", "lower"},
	{"rollout.run_ms", "ms", "lower"},
	{"rollout.apply_share", "ratio", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_cycles_per_op", "count/op", "lower"},
	{"go.gc_pause_ms_per_op", "ms", "lower"},
	{"campaign.self_ms", "ms", "lower"},
	{"policy.self_ms", "ms", "lower"},
	{"attack.self_ms", "ms", "lower"},
	{"engine.self_ms", "ms", "lower"},
	{"report.self_ms", "ms", "lower"},
	{"wire.self_ms", "ms", "lower"},
	{"shard.self_ms", "ms", "lower"},
	{"risk.self_ms", "ms", "lower"},
	{"rollout.self_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether s may name a workload or a metric.
func ValidName(s string) bool { return nameRE.MatchString(s) }

// Median returns the median of xs (NaN when empty). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TailBeyond is how many samples must lie beyond a reported tail value.
const TailBeyond = 10

// MinTailSamples is the fewest samples for which Tail reports a value of
// higher rank than the median.
const MinTailSamples = 2*TailBeyond + 2

// Tail returns the highest percentile of xs with at least TailBeyond
// samples beyond it: the (TailBeyond+1)-th largest sample, which sits at
// percentile 100·(n−TailBeyond)/n. ok is false when xs has fewer than
// MinTailSamples samples; that value would not rank above the median.
func Tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n < MinTailSamples {
		return math.NaN(), math.NaN(), false
	}
	s := sorted(xs)
	return s[n-1-TailBeyond], 100 * float64(n-TailBeyond) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Value is one metric reading in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line a run ends with.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Write prints every metric by name with its unit, one per line, then the
// result as one JSON object on the last line. A metric that could not be
// measured (NaN or infinite) is an error: the result is not printed.
func (r Result) Write(w io.Writer, metrics []Metric) error {
	for _, m := range metrics {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no finite value", m.Name)
		}
		fmt.Fprintf(w, "metric %-30s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Set records the value of the metric called name, from table, in ms.
func Set(ms map[string]Value, table []Metric, name string, v float64) {
	for _, m := range table {
		if m.Name == name {
			ms[name] = Value{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("bench: unknown metric " + name)
}
