package campaign

import (
	"fmt"
	"runtime"
	"testing"
)

// TestSweepBatchedMatchesOracle is the acceptance gate of the cell-major
// sweep: the default path (prefix-grouped cells run once, scaled to the
// fleet) must render a CampaignReport byte-identical to the vehicle-major
// reference (NoBatch) at several worker counts, pooled and fresh,
// with and without live-phase error injection (the one knob that makes the
// live phase run per vehicle).
func TestSweepBatchedMatchesOracle(t *testing.T) {
	plan := determinismPlan(t)
	for _, errRate := range []float64{0, 0.03} {
		cfg := SweepConfig{Fleet: 6, Workers: 1, RootSeed: 555, ErrorRate: errRate, NoBatch: true}
		oracle, err := Sweep(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.String()
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, fresh := range []bool{false, true} {
				name := fmt.Sprintf("err=%v/workers=%d/fresh=%v", errRate, workers, fresh)
				rep, err := Sweep(plan, SweepConfig{
					Fleet: 6, Workers: workers, RootSeed: 555,
					ErrorRate: errRate, FreshVehicles: fresh,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := rep.String(); got != want {
					t.Errorf("%s: batched report diverged from oracle:\n--- oracle\n%s--- batched\n%s", name, want, got)
				}
			}
		}
	}
}

// TestCompilePrefixKeys pins the prefix-sharing metadata the compiler emits:
// mutate variants key per base threat, flood and staged families share one
// key family-wide, and no scenario is left unkeyed (an unkeyed cell would
// silently fall back to the unbatched singleton path).
func TestCompilePrefixKeys(t *testing.T) {
	plan := determinismPlan(t)
	for fi := range plan.Families {
		fam := &plan.Families[fi]
		keys := map[uint64]bool{}
		for si := range fam.Scenarios {
			key := fam.Scenarios[si].PrefixKey
			if key == 0 {
				t.Errorf("family %s scenario %d has no prefix key", fam.Name, si)
			}
			keys[key] = true
		}
		switch fam.Kind {
		case KindFlood, KindStaged:
			if len(keys) != 1 {
				t.Errorf("family %s (%s): want one family-wide prefix key, got %d", fam.Name, fam.Kind, len(keys))
			}
		case KindMutate:
			// The det spec's mutate family draws from the full Table I
			// catalog; its sampled variants must not all collapse into one
			// bucket, and variants of one base must share their key.
			if len(keys) < 2 {
				t.Errorf("family %s (mutate): want per-base prefix keys, got %d distinct", fam.Name, len(keys))
			}
		}
	}
}
