// Command benchgate compares `go test -bench` output against a checked-in
// benchmark snapshot (BENCH_<n>.json) and fails when any benchmark regresses
// by more than the allowed factor in ns/op — or, when the input carries
// -benchmem columns and the snapshot records allocs_per_op, in allocs/op —
// or, when the snapshot records custom per-second metrics (vehicles/s,
// cells/s from b.ReportMetric), when a measured rate drops below snapshot /
// factor. Rates invert the gate because higher is better there; metrics
// whose unit is not per-second (scenarios/vehicle) are informational and
// never gated. It is the CI smoke gate for the fleet engine's throughput and
// the pooled substrate's allocation discipline: a gross slowdown (>2x by
// default), an allocation explosion or a collapsed sweep rate fails the
// build, while ordinary machine-to-machine noise passes (allocation counts
// are near-deterministic, so the allocs gate is effectively exact).
//
// Usage:
//
//	go test -run '^$' -bench 'FleetSweep|Fig2|CampaignSweep|RiskCalibrate' -benchmem -benchtime 20x . \
//	  | benchgate -snapshot BENCH_6.json
//
// The tool reads benchmark output on stdin. Sub-benchmark names are matched
// after stripping the trailing -<GOMAXPROCS> suffix; benchmarks missing from
// the snapshot are ignored, but at least one must match. After the verdicts
// it prints a benchstat-style delta summary (snapshot vs measured, signed
// percentages) so the CI log shows how far each hot path moved, not just
// whether it crossed the failure factor.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snapshot mirrors the BENCH_<n>.json schema.
type snapshot struct {
	Comment    string                `json:"comment"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric columns keyed by unit
	// (e.g. "vehicles/s", "cells/s"). Per-second units are rate-gated:
	// higher is better, so the gate fires when measured < snapshot/factor.
	Metrics map[string]float64 `json:"metrics"`
}

// benchLine matches e.g. "BenchmarkFleetSweep/fleet=1000-8  7  148317995 ns/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocsField matches the -benchmem allocation column anywhere in the line.
var allocsField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// metricValue extracts the value of one custom b.ReportMetric column
// ("<value> <unit>") from a benchmark output line.
func metricValue(line, unit string) (float64, bool) {
	re := regexp.MustCompile(`\s([0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?) ` + regexp.QuoteMeta(unit) + `(?:\s|$)`)
	m := re.FindStringSubmatch(line)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// deltaRow is one matched benchmark's old-vs-new comparison for the summary
// table.
type deltaRow struct {
	name               string
	oldNs, newNs       float64
	oldAllocs, nAllocs float64 // -1 when either side lacks allocation data
}

// pct renders a benchstat-style signed percentage: negative is an
// improvement (less time / fewer allocations than the snapshot).
func pct(oldV, newV float64) string {
	if oldV <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (newV-oldV)/oldV*100)
}

// printDeltaSummary renders the benchstat-style comparison table the CI log
// shows alongside the pass/fail verdicts: per benchmark, snapshot vs
// measured ns/op (and allocs/op when both sides carry it) with the signed
// percentage delta, so an improvement or a creeping sub-gate regression is
// visible without downloading artifacts and running benchstat by hand.
func printDeltaSummary(snapPath string, rows []deltaRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Printf("\nbenchgate: delta summary vs %s (negative = improvement)\n", snapPath)
	fmt.Printf("  %-44s %14s %14s %9s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, r := range rows {
		allocCols := fmt.Sprintf("%12s %12s %8s", "-", "-", "-")
		if r.oldAllocs >= 0 && r.nAllocs >= 0 {
			allocCols = fmt.Sprintf("%12.0f %12.0f %8s", r.oldAllocs, r.nAllocs, pct(r.oldAllocs, r.nAllocs))
		}
		fmt.Printf("  %-44s %14.0f %14.0f %9s %s\n", r.name, r.oldNs, r.newNs, pct(r.oldNs, r.newNs), allocCols)
	}
}

// printHealth is the containment-visibility side mode: it scans a carsim
// report (the CI smoke artifacts) for the sweep supervisor's health line and
// echoes the quarantine/retry counters with a benchgate prefix, so
// the CI log's smoke-diff section shows what the supervisor contained
// without anyone opening artifacts. Informational only — determinism is
// asserted by the diffs themselves, so this mode never fails the build.
func printHealth(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal("read report: %v", err)
	}
	found := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "health: ") {
			fmt.Printf("benchgate: containment (%s): %s\n", path, strings.TrimPrefix(line, "health: "))
			found = true
		}
	}
	if !found {
		fmt.Printf("benchgate: containment (%s): no health line (supervision not armed, nothing contained)\n", path)
	}
}

func main() {
	snapPath := flag.String("snapshot", "BENCH_6.json", "benchmark snapshot to compare against")
	factor := flag.Float64("factor", 2.0, "fail when measured ns/op exceeds snapshot by this factor")
	allocFactor := flag.Float64("alloc-factor", 2.0, "fail when measured allocs/op exceeds snapshot by this factor (needs -benchmem input)")
	healthFile := flag.String("print-health", "", "echo the supervisor health counters of a carsim report file and exit (no gating)")
	flag.Parse()

	if *healthFile != "" {
		printHealth(*healthFile)
		return
	}

	raw, err := os.ReadFile(*snapPath)
	if err != nil {
		fatal("read snapshot: %v", err)
	}
	var snap snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		fatal("parse snapshot %s: %v", *snapPath, err)
	}

	matched, failed := 0, 0
	var deltas []deltaRow
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the CI log
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		entry, ok := snap.Benchmarks[name]
		if !ok || entry.NsPerOp <= 0 {
			continue
		}
		measured, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		matched++
		ratio := measured / entry.NsPerOp
		verdict := "ok"
		if ratio > *factor {
			verdict = "REGRESSION"
			failed++
		}
		fmt.Printf("benchgate: %-40s %12.0f ns/op vs snapshot %12.0f (%.2fx) %s\n",
			name, measured, entry.NsPerOp, ratio, verdict)
		row := deltaRow{name: name, oldNs: entry.NsPerOp, newNs: measured, oldAllocs: -1, nAllocs: -1}

		// Allocation gate: only when both sides carry the data. A pooled
		// substrate's allocs/op is nearly exact, so >allocFactor means a
		// hot path started allocating, not that the machine is slow.
		am := allocsField.FindStringSubmatch(line)
		if am != nil && entry.AllocsPerOp > 0 {
			if allocs, err := strconv.ParseFloat(am[1], 64); err == nil {
				row.oldAllocs, row.nAllocs = entry.AllocsPerOp, allocs
				aratio := allocs / entry.AllocsPerOp
				verdict = "ok"
				if aratio > *allocFactor {
					verdict = "ALLOC REGRESSION"
					failed++
				}
				fmt.Printf("benchgate: %-40s %12.0f allocs/op vs snapshot %12.0f (%.2fx) %s\n",
					name, allocs, entry.AllocsPerOp, aratio, verdict)
			}
		}

		// Rate gate: custom per-second metrics (vehicles/s, cells/s) are
		// higher-is-better, so the gate inverts — fail when the measured rate
		// drops below snapshot/factor. Non-rate metrics (scenarios/vehicle)
		// are structural constants, printed for the log but never gated.
		units := make([]string, 0, len(entry.Metrics))
		for unit := range entry.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			snapV := entry.Metrics[unit]
			if snapV <= 0 {
				continue
			}
			measuredV, ok := metricValue(line, unit)
			if !ok {
				continue
			}
			rratio := measuredV / snapV
			if !strings.HasSuffix(unit, "/s") {
				fmt.Printf("benchgate: %-40s %12.0f %s vs snapshot %12.0f (%.2fx) info\n",
					name, measuredV, unit, snapV, rratio)
				continue
			}
			verdict = "ok"
			if measuredV < snapV / *factor {
				verdict = "RATE REGRESSION"
				failed++
			}
			fmt.Printf("benchgate: %-40s %12.0f %s vs snapshot %12.0f (%.2fx) %s\n",
				name, measuredV, unit, snapV, rratio, verdict)
		}
		deltas = append(deltas, row)
	}
	if err := sc.Err(); err != nil {
		fatal("read stdin: %v", err)
	}
	if matched == 0 {
		fatal("no benchmark in the input matched the snapshot %s", *snapPath)
	}
	printDeltaSummary(*snapPath, deltas)
	if failed > 0 {
		fatal("%d benchmark gate(s) breached %.1fx (ns/op, rates) / %.1fx (allocs/op) vs %s",
			failed, *factor, *allocFactor, *snapPath)
	}
	fmt.Printf("benchgate: %d benchmark(s) within %.1fx ns/op+rates and %.1fx allocs/op of %s\n",
		matched, *factor, *allocFactor, *snapPath)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
