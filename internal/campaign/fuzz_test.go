package campaign

import (
	"reflect"
	"testing"
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

// maxFuzzCells bounds the per-vehicle cells of a spec FuzzSweepEquivalence
// sweeps, so one input stays a few milliseconds per mode.
const maxFuzzCells = 256

// FuzzSweepEquivalence is the executor-level differential: every accepted
// spec is swept at fleets 2 and 3 under every execution mode — batched,
// the NoBatch oracle, fresh vehicles, in-process shards, and other worker
// counts — and every mode must render the byte-identical report, or every
// mode must fail. A panic anywhere fails the input.
func FuzzSweepEquivalence(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
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
		for _, fleet := range []int{2, 3} {
			base := SweepConfig{Fleet: fleet, Workers: 2, RootSeed: 0xF0220}
			modes := map[string]SweepConfig{}
			for name, edit := range map[string]func(*SweepConfig){
				"no-batch":  func(c *SweepConfig) { c.NoBatch = true },
				"fresh":     func(c *SweepConfig) { c.FreshVehicles = true },
				"shards=2":  func(c *SweepConfig) { c.Shards = 2 },
				"workers=1": func(c *SweepConfig) { c.Workers = 1 },
				"workers=3": func(c *SweepConfig) { c.Workers = 3 },
			} {
				c := base
				edit(&c)
				modes[name] = c
			}
			ref, refErr := Sweep(plan, base)
			for name, cfg := range modes {
				rep, err := Sweep(plan, cfg)
				switch {
				case (err == nil) != (refErr == nil):
					t.Fatalf("fleet %d %s: sweep error %v, default mode's %v\n%s", fleet, name, err, refErr, sp)
				case err == nil && rep.String() != ref.String():
					t.Fatalf("fleet %d %s: report diverged from the default mode\n--- default\n%s--- %s\n%s--- spec\n%s",
						fleet, name, ref, name, rep, sp)
				}
			}
		}
	})
}
