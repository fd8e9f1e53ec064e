// Command layers is the benchmark's traced per-layer runner. It runs one
// workload's ops in-process through the packages' public functions, with a
// span around each call into a layer, and prints the per-layer metrics
// BENCHMARK.json lists. Each workload's traced op exercises the layers its
// end-to-end op reaches; every other layer is measured on a probe built
// from the same workload inputs (see perfbench/README.md), so every metric
// is reported for every workload.
//
// The ops run in three passes: two traced passes whose deterministic counts
// must agree exactly, then one pass with spans off, whose time against the
// traced passes is the trace overhead. Spans are written once, at the end,
// to the -spans file.
//
// perfbench -trace 1 builds and runs it; it is not meant to be run alone.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"repro/perfbench/bench"
	"repro/perfbench/gen"
)

func main() {
	workload := flag.String("workload", "", "workload to trace")
	seed := flag.Uint64("seed", 1, "workload seed")
	carsim := flag.String("carsim", "", "carsim binary the shard layer spawns")
	tmp := flag.String("tmp", "", "scratch dir for generated inputs")
	spans := flag.String("spans", "", "file the spans are written to")
	flag.Parse()

	if err := run(*workload, *seed, *carsim, *tmp, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// sample is one op's per-layer readings, keyed by metric name.
type sample map[string]float64

// opFunc runs traced op i and returns its readings; a failed output check
// is returned as check, not err.
type opFunc func(t *tracer, i int) (s sample, check error, err error)

func run(workload string, seed uint64, carsim, tmp, spansPath string) error {
	if carsim == "" || tmp == "" || spansPath == "" {
		return fmt.Errorf("-carsim, -tmp and -spans are required")
	}
	in := filepath.Join(tmp, "layers")
	if err := os.MkdirAll(in, 0o755); err != nil {
		return err
	}
	fn, ops, err := newOp(workload, seed, carsim, in)
	if err != nil {
		return err
	}

	t := newTracer()
	failed := map[string]bool{}
	var passes [2][]sample
	var tracedWall, plainWall time.Duration
	for pass := 0; pass < 3; pass++ {
		t.on = pass < 2
		for i := 0; i < ops; i++ {
			t.op = pass*ops + i
			start := time.Now()
			s, check, err := fn(t, i)
			if err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
			if pass < 2 {
				tracedWall += time.Since(start)
				passes[pass] = append(passes[pass], s)
			} else {
				plainWall += time.Since(start)
			}
			if check != nil {
				fmt.Fprintf(os.Stderr, "op %d (pass %d) failed: %v\n", i, pass, check)
				failed[fmt.Sprint(pass, "/", i)] = true
			}
		}
	}
	// Deterministic counts must repeat exactly across the traced passes.
	for i := 0; i < ops; i++ {
		for _, m := range bench.PerLayer {
			if m.Unit != "count" {
				continue
			}
			if a, b := passes[0][i][m.Name], passes[1][i][m.Name]; a != b {
				fmt.Fprintf(os.Stderr, "op %d: count %s differs across traced passes: %v vs %v\n", i, m.Name, a, b)
				failed[fmt.Sprint("1/", i)] = true
			}
		}
	}

	// The traced passes ran ops 0..2·ops-1, in this order.
	all := append(passes[0], passes[1]...)
	for op, s := range all {
		self := t.selfTimes(op)
		for _, layer := range selfLayers {
			s[layer+".self_ms"] = ms(self[layer])
		}
	}
	m := map[string]bench.Value{}
	for _, metric := range bench.PerLayer {
		if metric.Name == "trace.overhead_frac" {
			continue
		}
		var xs []float64
		for _, s := range all {
			v, ok := s[metric.Name]
			if !ok {
				return fmt.Errorf("metric %s was not measured", metric.Name)
			}
			xs = append(xs, v)
		}
		bench.Set(m, bench.PerLayer, metric.Name, bench.Median(xs))
	}
	// Two traced passes against one plain pass over the same ops.
	bench.Set(m, bench.PerLayer, "trace.overhead_frac", (tracedWall.Seconds()/2-plainWall.Seconds())/plainWall.Seconds())
	fmt.Printf("traced %d ops x 2 passes in %v; plain pass %v\n", ops, tracedWall.Round(time.Millisecond), plainWall.Round(time.Millisecond))

	if err := t.write(spansPath); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(t.spans), spansPath)
	res := bench.Result{Correct: len(failed) == 0, Attempted: 3 * ops, Failed: len(failed), Metrics: m}
	return res.Write(os.Stdout, bench.PerLayer)
}

// selfLayers are the layers whose self time is reported.
var selfLayers = []string{"campaign", "policy", "attack", "engine", "report", "wire", "shard", "risk", "rollout"}

// Sizes of the traced ops.
const (
	distinctFleet    = 100
	replayFleet      = 100_000
	rolloutVehicles  = 300
	probeVehicles    = 20 // rollout probe on the sweep workloads
	gateProbeFleet   = 150
	probeShards      = 4
	probeParallelism = 2
)

// newOp returns the traced op of workload and how many ops one pass runs.
func newOp(workload string, seed uint64, carsim, in string) (opFunc, int, error) {
	write := func(name, text string) (string, error) {
		path := filepath.Join(in, name)
		return path, os.WriteFile(path, []byte(text), 0o644)
	}
	switch workload {
	case "campaign-distinct", "fleet-replay", "shard-exec":
		ops := 2
		if workload == "campaign-distinct" {
			ops = 4 // its ops are short
		}
		return func(t *tracer, i int) (sample, error, error) {
			sw := sweepInput{mode: "campaign", carsim: carsim, fleet: replayFleet, root: gen.RootSeed(seed, 0), text: gen.Quickstart}
			name := "quickstart.campaign"
			if workload == "campaign-distinct" {
				sw.fleet, sw.workers, sw.root = distinctFleet, 2, gen.RootSeed(seed, i)
				sw.text, name = gen.CampaignDistinct(seed, i), fmt.Sprintf("distinct-%d.campaign", i)
			}
			var err error
			if sw.path, err = write(name, sw.text); err != nil {
				return nil, nil, err
			}
			root := t.begin("op")
			defer t.end(root)
			s := sample{}
			check, err := tracedSweep(t, sw, s, workload == "shard-exec")
			if err != nil {
				return nil, nil, err
			}
			probe := tracedRollout(t, rolloutInput{vehicles: probeVehicles, cand: gen.RolloutCandidate(seed, i), root: sw.root}, s, false)
			return s, errors.Join(check, probe), nil
		}, ops, nil
	case "policy-rollout":
		return func(t *tracer, i int) (sample, error, error) {
			root := gen.RootSeed(seed, i)
			gate, err := write(fmt.Sprintf("gate-%d.json", i), gen.GateSpec(root))
			if err != nil {
				return nil, nil, err
			}
			op := t.begin("op")
			defer t.end(op)
			s := sample{}
			check := tracedRollout(t, rolloutInput{vehicles: rolloutVehicles, cand: gen.RolloutCandidate(seed, i), root: root}, s, true)
			sw := sweepInput{mode: "risk", carsim: carsim, path: gate, text: gen.GateSpec(root), fleet: gateProbeFleet, root: root}
			probe, err := tracedSweep(t, sw, s, false)
			if err != nil {
				return nil, nil, err
			}
			return s, errors.Join(check, probe), nil
		}, 2, nil // one benign and one flawed candidate
	}
	return nil, 0, fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(bench.Workloads, ", "))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// goStats reads the runtime's allocation and GC counters.
type goStats struct{ allocBytes, gcCycles, pauseSec float64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

func readGo() goStats {
	metrics.Read(goSamples)
	var g goStats
	g.allocBytes = float64(goSamples[0].Value.Uint64())
	g.gcCycles = float64(goSamples[1].Value.Uint64())
	// The pause distribution is a histogram: sum each bucket's count at
	// its lower bound (the last bucket is unbounded above).
	h := goSamples[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		g.pauseSec += float64(c) * max(h.Buckets[i], 0)
	}
	return g
}

// goDelta records the runtime counters' change since before into s.
func goDelta(s sample, before goStats) {
	after := readGo()
	s["go.alloc_mb_per_op"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	s["go.gc_cycles_per_op"] = after.gcCycles - before.gcCycles
	s["go.gc_pause_ms_per_op"] = (after.pauseSec - before.pauseSec) * 1e3
}

// medianOf returns the median of the durations in ms.
func medianOf(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return bench.Median(xs)
}
