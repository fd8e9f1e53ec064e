package gen

import (
	"strings"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for op := 0; op < 5; op++ {
		if CampaignDistinct(7, op) != CampaignDistinct(7, op) {
			t.Errorf("op %d: campaign spec differs between two calls", op)
		}
		if RolloutCandidate(7, op) != RolloutCandidate(7, op) {
			t.Errorf("op %d: candidate differs between two calls", op)
		}
		if RootSeed(7, op) != RootSeed(7, op) {
			t.Errorf("op %d: root seed differs between two calls", op)
		}
	}
}

func TestInputsDifferAcrossOpsAndSeeds(t *testing.T) {
	specs := map[string]bool{}
	roots := map[uint64]bool{}
	for _, seed := range []uint64{1, 2, 3} {
		for op := 0; op < 50; op++ {
			s := CampaignDistinct(seed, op)
			if specs[s] {
				t.Fatalf("seed %d op %d repeats an earlier campaign spec", seed, op)
			}
			specs[s] = true
			roots[RootSeed(seed, op)] = true
		}
	}
	if len(roots) != 150 {
		t.Errorf("%d distinct root seeds over 150 (seed, op) pairs", len(roots))
	}
}

func TestCandidatesAlternate(t *testing.T) {
	for op := 0; op < 20; op++ {
		c := RolloutCandidate(3, op)
		if c.Flawed != (op%2 == 1) {
			t.Errorf("op %d: flawed = %v", op, c.Flawed)
		}
		if c.Version < 2 {
			t.Errorf("op %d: version %d does not supersede the fleet's v1", op, c.Version)
		}
		if got := strings.Contains(c.Source, "overbroad"); got != c.Flawed {
			t.Errorf("op %d: hole present = %v, flawed = %v", op, got, c.Flawed)
		}
		want := 0
		if c.Flawed {
			want = 2
		}
		if c.ExitCode() != want {
			t.Errorf("op %d: exit code %d, want %d", op, c.ExitCode(), want)
		}
	}
}

func TestDistinctShape(t *testing.T) {
	spec := CampaignDistinct(1, 0)
	if n := strings.Count(spec, "  flood \""); n != floodFamilies {
		t.Errorf("%d flood families, want %d", n, floodFamilies)
	}
	if n := strings.Count(spec, "  staged \""); n != stagedFamilies {
		t.Errorf("%d staged families, want %d", n, stagedFamilies)
	}
	if DistinctCells != 9584 {
		t.Errorf("DistinctCells = %d", DistinctCells)
	}
}
