package engine

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
)

// TestMergeFoldMatchesMerge pins the refactor invariant the streaming
// shard merge rests on: folding vehicles one at a time through MergeFold
// renders byte-identically to the batch Merge of the same slice (same
// float summation order, same group folds, same health ledger).
func TestMergeFoldMatchesMerge(t *testing.T) {
	cfg := quickConfig(7, 3)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Deadline: 0.1}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := Merge(cfg, fr.Vehicles)
	if err != nil {
		t.Fatal(err)
	}
	fold, err := NewMergeFold(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fr.Vehicles {
		fold.Add(v)
	}
	streamed := fold.Finish()
	if got, want := streamed.String(), batch.String(); got != want {
		t.Errorf("MergeFold diverged from Merge\n--- batch\n%s\n--- fold\n%s", want, got)
	}
	if streamed.Health != batch.Health {
		t.Errorf("health ledger moved: %+v vs %+v", streamed.Health, batch.Health)
	}
	if got, want := streamed.String(), fr.String(); got != want {
		t.Errorf("MergeFold diverged from the live run\n--- run\n%s\n--- fold\n%s", want, got)
	}
}

// TestRunScaledFoldMatchesPerVehicleFold pins MergeFold's run folding:
// vehicles sharing one group block fold as that block scaled by the run
// length, and that must equal merging every vehicle's summaries one at a
// time. Covered on a cell-major run (one block for the whole fleet) and on
// a chaos-armed vehicle-major run (a separate block per vehicle), each
// folded as run and as deep copies that share nothing.
func TestRunScaledFoldMatchesPerVehicleFold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chaos  *chaos.Plan
		shared bool // every vehicle's Groups is one backing array
	}{
		{"cell-major", nil, true},
		{"vehicle-major-chaos", &chaos.Plan{Seed: 7, Panic: 0.2, Deadline: 0.1}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := groupConfig(testGroups(), 3, false)
			cfg.Fleet = 9
			cfg.Chaos = tc.chaos
			fr, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vs := fr.Vehicles
			for i := 1; i < len(vs); i++ {
				if got := sameBlock(vs[i].Groups, vs[0].Groups); got != tc.shared {
					t.Fatalf("vehicle %d shares vehicle 0's block = %v, want %v", i, got, tc.shared)
				}
			}

			// Reference: every vehicle's summaries merged one at a time.
			want := make([][]attack.RegimeSummary, len(fr.Groups))
			for gi := range want {
				want[gi] = make([]attack.RegimeSummary, len(fr.Groups[gi].Regimes))
				for ri := range want[gi] {
					want[gi][ri].Regime = fr.Groups[gi].Regimes[ri].Regime
				}
			}
			for _, v := range vs {
				for gi := range v.Groups {
					for ri := range v.Groups[gi] {
						want[gi][ri].Summary.Merge(v.Groups[gi][ri].Summary)
					}
				}
			}

			fold := func(clone bool) *FleetReport {
				m, err := NewMergeFold(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vs {
					if clone {
						g := make([][]attack.RegimeSummary, len(v.Groups))
						for gi := range g {
							g[gi] = slices.Clone(v.Groups[gi])
						}
						v.Groups = g
					}
					m.Add(v)
				}
				return m.Finish()
			}
			scaled, single := fold(false), fold(true)
			for _, got := range []*FleetReport{fr, scaled, single} {
				for gi := range want {
					if !reflect.DeepEqual(got.Groups[gi].Regimes, want[gi]) {
						t.Errorf("group %d aggregates %+v, want per-vehicle fold %+v", gi, got.Groups[gi].Regimes, want[gi])
					}
				}
			}
			if scaled.String() != single.String() || scaled.String() != fr.String() {
				t.Errorf("run-scaled fold, per-vehicle fold and the run's own report differ\n--- run\n%s\n--- scaled\n%s\n--- per-vehicle\n%s",
					fr, scaled, single)
			}
		})
	}
}

// TestOnVehicleOrdered pins the streaming emitter's contract: with many
// workers completing vehicles out of order, OnVehicle fires exactly once
// per vehicle, strictly in ascending index order, never concurrently.
func TestOnVehicleOrdered(t *testing.T) {
	cfg := quickConfig(24, 8)
	var got []int
	var inFlight atomic.Int32
	cfg.OnVehicle = func(v *VehicleReport) {
		if inFlight.Add(1) != 1 {
			t.Error("OnVehicle callbacks ran concurrently")
		}
		got = append(got, v.Index)
		inFlight.Add(-1)
	}
	fr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times, want %d", len(got), cfg.Fleet)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("emission order broken at position %d: got index %d (full order %v)", i, idx, got)
		}
	}
	// The emitted reports are the ones the fleet report retains.
	for i := range fr.Vehicles {
		if fr.Vehicles[i].Index != i {
			t.Fatalf("report slice out of order at %d", i)
		}
	}
}

// TestOnVehicleOffsetIndices: a sharded child emits global indices — the
// callback sees IndexOffset-shifted values, in order.
func TestOnVehicleOffsetIndices(t *testing.T) {
	cfg := quickConfig(5, 2)
	cfg.IndexOffset = 100
	var got []int
	cfg.OnVehicle = func(v *VehicleReport) { got = append(got, v.Index) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for i, idx := range got {
		if idx != 100+i {
			t.Fatalf("global index at position %d = %d, want %d", i, idx, 100+i)
		}
	}
	if len(got) != 5 {
		t.Fatalf("OnVehicle fired %d times, want 5", len(got))
	}
}

// TestOnVehicleFiresOnFailedRun: vehicles that complete before an
// unrecoverable fault still stream out — the partial-report contract the
// shard driver's quarantine path depends on.
func TestOnVehicleFiresOnFailedRun(t *testing.T) {
	cfg := quickConfig(6, 2)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 1, Persist: 99}
	cfg.MaxRetries = 1
	var fired int
	last := -1
	cfg.OnVehicle = func(v *VehicleReport) {
		fired++
		if v.Index <= last {
			t.Errorf("emission order broken: %d after %d", v.Index, last)
		}
		last = v.Index
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("persistent chaos plan did not fail the run")
	}
	if fired != cfg.Fleet {
		t.Fatalf("OnVehicle fired %d times on a failed run, want %d (errored vehicles emit too)", fired, cfg.Fleet)
	}
}

// TestUnrecoverableVehicleLineHasNoRegimes pins how a partial report
// renders a vehicle whose visit failed: its line carries no regime entries,
// while its partial groups still count toward the fleet aggregates. A
// vehicle that completed keeps its entries.
func TestUnrecoverableVehicleLineHasNoRegimes(t *testing.T) {
	cfg := quickConfig(8, 2)
	cfg.Chaos = &chaos.Plan{Seed: 11, Panic: 0.2, Persist: 99}
	rep, err := Run(cfg)
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
	lines := strings.Split(rep.String(), "\n")
	var failed, completed int
	for _, v := range rep.Vehicles {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "  "+v.VIN+" ") })
		if i < 0 {
			t.Fatalf("%s: no vehicle line in\n%s", v.VIN, rep)
		}
		hasRegimes := strings.Contains(lines[i], "{succ=")
		if v.Health.Unrecoverable > 0 {
			failed++
			if hasRegimes {
				t.Errorf("failed vehicle renders regime entries: %q", lines[i])
			}
			if len(v.Groups) == 0 {
				t.Errorf("%s: failed vehicle lost its partial groups", v.VIN)
			}
		} else {
			completed++
			if !hasRegimes {
				t.Errorf("completed vehicle renders no regime entries: %q", lines[i])
			}
		}
	}
	if failed == 0 || completed == 0 {
		t.Fatalf("plan gave %d failed and %d completed vehicles, want some of each", failed, completed)
	}
	var runs int
	for _, v := range rep.Vehicles {
		for _, g := range v.Groups {
			for _, rs := range g {
				runs += rs.Summary.Runs
			}
		}
	}
	var fleetRuns int
	for _, rs := range rep.Attacks {
		fleetRuns += rs.Summary.Runs
	}
	if fleetRuns != runs {
		t.Errorf("fleet aggregates count %d runs, vehicles' groups %d", fleetRuns, runs)
	}
}

// TestCellMajorHealthOnFirstVehicle: a cell-major run books its cell-phase
// containment events once, on its first vehicle, whatever the worker count,
// and a MergeFold over the emitted vehicles equals the engine's own merge.
// A 1ns virtual-time budget makes every pooled cell overrun, so the ledger
// fills organically (no chaos plan, so the run stays cell-major).
func TestCellMajorHealthOnFirstVehicle(t *testing.T) {
	for _, budget := range []time.Duration{0, time.Nanosecond} {
		var want Health
		for _, workers := range []int{1, 3} {
			cfg := quickConfig(5, workers)
			cfg.CellTimeBudget = budget
			fold, err := NewMergeFold(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.OnVehicle = func(v *VehicleReport) { fold.Add(*v) }
			fr, err := Run(cfg)
			if budget > 0 && !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("budget %v: err = %v, want ErrUnrecoverable", budget, err)
			} else if budget == 0 && err != nil {
				t.Fatal(err)
			}
			if fr.Health != fr.Vehicles[0].Health {
				t.Errorf("budget %v workers %d: fleet health %+v is not the first vehicle's %+v",
					budget, workers, fr.Health, fr.Vehicles[0].Health)
			}
			if budget > 0 && fr.Health.DeadlineOverruns == 0 {
				t.Errorf("budget %v: no deadline overruns booked", budget)
			}
			if workers == 1 {
				want = fr.Health
			} else if fr.Health != want {
				t.Errorf("budget %v: health moved with the worker count: %+v vs %+v", budget, fr.Health, want)
			}
			if got := fold.Finish(); !reflect.DeepEqual(got, fr) {
				t.Errorf("budget %v workers %d: MergeFold over the emitted vehicles differs from the run's merge", budget, workers)
			}
		}
	}
}
