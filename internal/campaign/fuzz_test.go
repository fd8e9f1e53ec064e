package campaign

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// parseSeeds is the shared seed corpus of the campaign fuzzers: every
// construct of the grammar, in both the DSL and the JSON form.
var parseSeeds = []string{
	testSpec,
	determinismSpec,
	`campaign "min" version 0 { mutate "m" {} }`,
	`campaign "f" version 1 { flood "x" { id 0x7FF team A, B rates 1ms frames 3 goal exfil } }`,
	`campaign "s" version 1 {
  staged "st" {
    attackers Sensors
    placements outside
    modes RemoteDiag
    goal always
    stage "one" { proceed doors-locked inject 0x600 DEAD x 4 every 250us from Helper }
  }
}`,
	`{"name":"j","version":3,"seed":9,"regimes":["hpe"],"generators":[{"kind":"mutate","name":"g","pick":2}]}`,
	"campaign \"c\" version 18446744073709551615 {\n# comment\nmutate \"m\" { base * }\n}",
}

// FuzzParse feeds arbitrary text to the campaign parser (both the DSL and
// the JSON branch): it must never panic, and any document it accepts must
// render (String) back to the canonical DSL and re-parse to an identical
// spec — the same round-trip contract the policy DSL fuzzer enforces.
// Accepted specs must also compile without panicking.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := Parse(src)
		if err != nil {
			return
		}
		rendered := sp.String()
		sp2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted campaign does not re-parse: %v\n--- source ---\n%s\n--- rendered ---\n%s",
				err, src, rendered)
		}
		if !reflect.DeepEqual(sp, sp2) {
			t.Fatalf("render round trip changed the spec\n--- first ---\n%+v\n--- second ---\n%+v\n--- rendered ---\n%s",
				sp, sp2, rendered)
		}
		// Compilation must never panic on a validated spec; errors (unknown
		// base threats, oversized products) are fine.
		plan, err := (Compiler{}).Compile(sp)
		if err != nil {
			return
		}
		// The expansion must be non-empty and internally consistent.
		if plan.ScenariosPerVehicle() == 0 {
			t.Fatalf("compiled plan has no scenarios\n%s", rendered)
		}
		for _, fam := range plan.Families {
			if len(fam.Regimes) == 0 {
				t.Fatalf("family %q has no regimes", fam.Name)
			}
		}
	})
}

// maxFuzzCells and maxFuzzFrames bound the per-vehicle work of a spec
// FuzzSweepEquivalence sweeps: cells bound the resets, frames bound what
// the cells inject (about 2.5us of simulation each on a 2-core Xeon), so
// one vehicle stays near 10ms and one input well under a second.
const (
	maxFuzzCells  = 256
	maxFuzzFrames = 4096
)

// floodCapSpec is the worst input the cell budget alone admits: 256 flood
// cells (16 teams x 8 rates x 2 regimes), every team at the grammar's size
// cap and every stream at its frame cap — about two million injected
// frames per vehicle, which the frame budget must skip.
var floodCapSpec = func() string {
	team := "team " + strings.Join([]string{"A", "B", "C", "D", "E", "F", "G", "H"}, ", ")
	var b strings.Builder
	b.WriteString(`campaign "cap" version 1 { flood "x" { id 0x7FF `)
	for i := 0; i < 16; i++ {
		b.WriteString(team + " ")
	}
	b.WriteString("rates 1us, 2us, 3us, 4us, 5us, 6us, 7us, 8us frames 1000 goal exfil } }")
	return b.String()
}()

// injectedFrames totals the forged frames one vehicle of the plan sends:
// every injection's repeat count (min 1), stages included, per regime.
func injectedFrames(plan *Plan) int {
	n := 0
	for _, fam := range plan.Families {
		per := 0
		for _, sc := range fam.Scenarios {
			injs := sc.Injections
			for _, st := range sc.Stages {
				injs = append(injs[:len(injs):len(injs)], st.Injections...)
			}
			for _, inj := range injs {
				per += max(inj.Repeat, 1)
			}
		}
		n += per * len(fam.Regimes)
	}
	return n
}

// fuzzChaos is the chaos-armed mode's fault plan: every cell and visit
// fault kind at rates a small sweep reliably hits, persist=1 so each retry
// clears its fault and the payload must match the unarmed run.
var fuzzChaos = &chaos.Plan{Seed: 0xC4A05, Panic: 0.05, Deadline: 0.05, Crash: 0.1, Persist: 1}

// FuzzSweepEquivalence is the executor-level differential: every accepted
// spec is swept at fleets 2 and 3 under every execution mode — cell-major,
// the NoBatch vehicle-major reference, fresh vehicles, in-process shards,
// other worker counts, and a chaos-armed run whose faults all recover —
// and every mode must render the byte-identical report (the chaos mode
// with its health line stripped), or every mode must fail. A panic
// anywhere fails the input.
func FuzzSweepEquivalence(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Add(floodCapSpec)
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := Parse(src)
		if err != nil {
			return
		}
		plan, err := (Compiler{}).Compile(sp)
		if err != nil {
			return
		}
		if plan.CellsPerVehicle() > maxFuzzCells {
			t.Skipf("%d cells/vehicle over the %d-cell budget", plan.CellsPerVehicle(), maxFuzzCells)
		}
		if n := injectedFrames(plan); n > maxFuzzFrames {
			t.Skipf("%d injected frames/vehicle over the %d-frame budget", n, maxFuzzFrames)
		}
		for _, fleet := range []int{2, 3} {
			base := SweepConfig{Fleet: fleet, Workers: 2, RootSeed: 0xF0220}
			modes := map[string]SweepConfig{}
			for name, edit := range map[string]func(*SweepConfig){
				"no-batch":  func(c *SweepConfig) { c.NoBatch = true },
				"fresh":     func(c *SweepConfig) { c.FreshVehicles = true },
				"shards=2":  func(c *SweepConfig) { c.Shards = 2 },
				"workers=1": func(c *SweepConfig) { c.Workers = 1 },
				"workers=3": func(c *SweepConfig) { c.Workers = 3 },
				"chaos":     func(c *SweepConfig) { c.Chaos = fuzzChaos },
			} {
				c := base
				edit(&c)
				modes[name] = c
			}
			ref, refErr := Sweep(plan, base)
			for name, cfg := range modes {
				rep, err := Sweep(plan, cfg)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("fleet %d %s: sweep error %v, default mode's %v\n%s", fleet, name, err, refErr, sp)
				}
				if err != nil {
					continue
				}
				got := rep.String()
				if name == "chaos" {
					got = stripHealth(got)
				}
				if got != ref.String() {
					t.Fatalf("fleet %d %s: report diverged from the default mode\n--- default\n%s--- %s\n%s--- spec\n%s",
						fleet, name, ref, name, rep, sp)
				}
			}
		}
	})
}

// TestFuzzBudgetsSkipFloodCap pins the per-input bounds: the seed corpus
// fits both budgets, and the frame-capped flood spec fits the cell budget
// but not the frame budget, so the fuzzer skips it instead of sweeping
// millions of frames per mode.
func TestFuzzBudgetsSkipFloodCap(t *testing.T) {
	compile := func(src string) *Plan {
		sp, err := Parse(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		plan, err := (Compiler{}).Compile(sp)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, src)
		}
		return plan
	}
	for i, src := range parseSeeds {
		sp, err := Parse(src)
		if err != nil {
			continue
		}
		plan, err := (Compiler{}).Compile(sp)
		if err != nil {
			continue
		}
		if plan.CellsPerVehicle() <= maxFuzzCells && injectedFrames(plan) > maxFuzzFrames {
			t.Errorf("seed %d: %d injected frames over the budget", i, injectedFrames(plan))
		}
	}
	plan := compile(floodCapSpec)
	if got := plan.CellsPerVehicle(); got != maxFuzzCells {
		t.Fatalf("flood-cap spec compiles to %d cells, want %d", got, maxFuzzCells)
	}
	if got, want := injectedFrames(plan), 256*8*1000; got != want {
		t.Errorf("flood-cap spec injects %d frames/vehicle, want %d", got, want)
	}
}
