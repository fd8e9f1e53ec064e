package engine_test

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/engine"
)

// These tests pin the cell-major sweep's premise and its result: attack
// outcomes do not depend on the seed, and a fleet derived from one
// simulated block is exactly the fleet whose every vehicle runs its cells.

// loadPlan compiles a shipped campaign spec.
func loadPlan(t *testing.T, name string) *campaign.Plan {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaigns", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.Parse(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func runPlan(t *testing.T, plan *campaign.Plan, scfg campaign.SweepConfig, edit func(*engine.Config)) *engine.FleetReport {
	t.Helper()
	cfg, err := campaign.EngineConfig(plan, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&cfg)
	}
	fr, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestCellMajorMatchesOracle: the default sweep, which simulates each cell
// once and scales, equals the vehicle-major NoBatch oracle, which runs every
// cell on every vehicle — whole fleet report, per-vehicle blocks included —
// across fleet sizes, worker counts, pooled and fresh stacks, live-phase
// error injection and root seeds.
func TestCellMajorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xce11, 0x3a70))
	for _, name := range []string{"quickstart.campaign", "takeover.json"} {
		plan := loadPlan(t, name)
		for _, fleet := range []int{1, 2, 3, 7} {
			for _, errRate := range []float64{0, 0.01} {
				root := rng.Uint64()
				base := campaign.SweepConfig{Fleet: fleet, Workers: 1, RootSeed: root, ErrorRate: errRate}
				oracle := runPlan(t, plan, base, func(c *engine.Config) { c.NoBatch = true })
				want := oracle.String()
				for _, workers := range []int{1, 2, 4} {
					for _, fresh := range []bool{false, true} {
						label := fmt.Sprintf("%s/fleet=%d/err=%v/root=%#x/workers=%d/fresh=%v",
							name, fleet, errRate, root, workers, fresh)
						scfg := base
						scfg.Workers, scfg.FreshVehicles = workers, fresh
						got := runPlan(t, plan, scfg, nil)
						got.Workers = oracle.Workers // the header echoes the pool size
						if s := got.String(); s != want {
							t.Fatalf("%s: cell-major report diverged from the oracle\n--- oracle\n%s--- cell-major\n%s", label, want, s)
						}
						if !reflect.DeepEqual(got, oracle) {
							t.Fatalf("%s: cell-major fleet report differs from the oracle's beneath the rendering", label)
						}
					}
				}
			}
		}
	}
}

// TestCellBlockSeedInvariant pins the premise the scaling rests on: one
// vehicle's quickstart block is the same whatever seeds its groups run
// under.
func TestCellBlockSeedInvariant(t *testing.T) {
	plan := loadPlan(t, "quickstart.campaign")
	rng := rand.New(rand.NewPCG(0x5eed, 0x1a7))
	var want []engine.GroupReport
	for k := 0; k < 32; k++ {
		fr := runPlan(t, plan, campaign.SweepConfig{Fleet: 1, Workers: 2}, func(c *engine.Config) {
			for gi := range c.Groups {
				c.Groups[gi].RootSeed = rng.Uint64()
			}
		})
		blocks := fr.Groups
		for gi := range blocks {
			blocks[gi].RootSeed = 0 // echoes the seed; the block itself must not move
		}
		if k == 0 {
			want = blocks
			continue
		}
		if !reflect.DeepEqual(blocks, want) {
			t.Fatalf("seed draw %d changed the quickstart cell block:\n got %+v\nwant %+v", k, blocks, want)
		}
	}
}

// TestFleetScalesExactly: at a fleet far beyond what per-vehicle
// simulation could cover, every group counter and live-phase bus counter
// is exactly fleet × the fleet-1 value. The expectation is folded with
// Summary.Merge, independently of the Scale the engine uses.
func TestFleetScalesExactly(t *testing.T) {
	plan := loadPlan(t, "quickstart.campaign")
	one := runPlan(t, plan, campaign.SweepConfig{Fleet: 1, RootSeed: 7}, nil)
	fr := runPlan(t, plan, campaign.SweepConfig{Fleet: scaleFleet, Workers: 2, RootSeed: 7}, nil)
	for gi := range one.Groups {
		for ri, rs := range one.Groups[gi].Regimes {
			var want attack.Summary
			for i := 0; i < scaleFleet; i++ {
				want.Merge(rs.Summary)
			}
			if got := fr.Groups[gi].Regimes[ri].Summary; got != want {
				t.Errorf("group %d regime %s: fleet %d = %+v, want %+v", gi, rs.Regime, scaleFleet, got, want)
			}
		}
	}
	if got, want := fr.FramesDelivered, one.FramesDelivered*scaleFleet; got != want {
		t.Errorf("frames delivered at fleet %d = %d, want %d", scaleFleet, got, want)
	}
	if len(fr.Vehicles) != scaleFleet {
		t.Fatalf("%d vehicle reports, want %d", len(fr.Vehicles), scaleFleet)
	}
}
