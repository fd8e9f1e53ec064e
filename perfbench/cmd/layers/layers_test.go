package main

import (
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/policy"
	"repro/perfbench/gen"
)

// The generator's inputs must mean to the program what the end-to-end
// checks assume: every campaign-distinct spec compiles to gen.DistinctCells
// cells of the declared kinds, and every candidate parses and supersedes
// the fleet's policy version.
func TestGeneratedInputsCompile(t *testing.T) {
	for op := 0; op < 6; op++ {
		spec, err := campaign.Parse(gen.CampaignDistinct(11, op))
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		plan, err := (campaign.Compiler{}).Compile(spec)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if got := plan.CellsPerVehicle(); got != gen.DistinctCells {
			t.Errorf("op %d: %d cells/vehicle, want %d", op, got, gen.DistinctCells)
		}
		kinds := map[string]int{}
		for _, f := range plan.Families {
			kinds[f.Kind] += len(f.Scenarios) * len(f.Regimes)
		}
		if kinds["mutate"] != gen.DistinctMutateCells || kinds["flood"] != gen.DistinctFloodCells || kinds["staged"] != gen.DistinctStagedCells {
			t.Errorf("op %d: cells by kind %v", op, kinds)
		}

		c := gen.RolloutCandidate(11, op)
		set, err := policy.Parse(c.Source)
		if err != nil {
			t.Fatalf("op %d candidate: %v", op, err)
		}
		if set.Version != c.Version {
			t.Errorf("op %d: parsed version %d, generator %d", op, set.Version, c.Version)
		}
	}
	spec, err := campaign.Parse(gen.Quickstart)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.CellsPerVehicle(); got != gen.QuickstartCellsPerVehicle {
		t.Errorf("quickstart: %d cells/vehicle, want %d", got, gen.QuickstartCellsPerVehicle)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	tr := &tracer{on: true, t0: time.Unix(0, 0)}
	at := func(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "shard.run", Start: 0, End: int64(100 * time.Millisecond)},
		{ID: 1, Parent: -1, Name: "engine.run", Start: int64(100 * time.Millisecond), End: int64(150 * time.Millisecond),
			Charged: map[string]int64{"wire.encode": int64(10 * time.Millisecond)}},
	}
	// Two overlapping children cover 10..70 ms of shard.run.
	tr.record("subprocess.shard", 0, at(10), at(50))
	tr.record("subprocess.shard", 0, at(30), at(70))
	self := tr.selfTimes(0)
	if self["shard"] != 40*time.Millisecond {
		t.Errorf("shard self time %v, want 40ms", self["shard"])
	}
	if self["engine"] != 40*time.Millisecond || self["wire"] != 10*time.Millisecond {
		t.Errorf("engine self %v, wire self %v; want 40ms and 10ms", self["engine"], self["wire"])
	}
	if self["subprocess"] != 80*time.Millisecond {
		t.Errorf("subprocess time %v, want 80ms", self["subprocess"])
	}
}
