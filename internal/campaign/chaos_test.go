package campaign

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/engine"
)

// chaosPlan is the shared fault mix of the supervisor property tests: every
// fault kind armed at rates high enough that a 6-vehicle sweep of the
// determinism campaign reliably hits each class.
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{Seed: 77, Panic: 0.03, Deadline: 0.02, Crash: 0.01}
}

// stripHealth drops the health line so the payload halves of two reports can
// be compared independently of their containment ledgers.
func stripHealth(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "health: ") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestChaosSweepPayloadMatchesFaultFree is the tentpole property: a sweep
// whose injected faults are all recovered by the supervisor (default
// persist=1, so every retry clears its fault) renders a payload report
// byte-identical to the fault-free oracle — only the health line may differ.
// Checked across worker counts and both pooling modes.
func TestChaosSweepPayloadMatchesFaultFree(t *testing.T) {
	plan := determinismPlan(t)
	clean, err := Sweep(plan, SweepConfig{Fleet: 6, Workers: 1, RootSeed: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Health.IsZero() || clean.HealthEnabled {
		t.Fatalf("fault-free sweep carries health state: %+v", clean.Health)
	}
	cleanPayload := stripHealth(clean.String())

	for _, fresh := range []bool{false, true} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			rep, err := Sweep(plan, SweepConfig{
				Fleet: 6, Workers: w, RootSeed: 1234,
				FreshVehicles: fresh, Chaos: chaosPlan(),
			})
			if err != nil {
				t.Fatalf("fresh=%v workers=%d: %v", fresh, w, err)
			}
			if rep.Health.IsZero() {
				t.Fatalf("fresh=%v workers=%d: chaos sweep contained nothing — rates too low for the shape", fresh, w)
			}
			if got := stripHealth(rep.String()); got != cleanPayload {
				t.Errorf("fresh=%v workers=%d: chaos payload diverged from fault-free oracle\n--- fault-free\n%s\n--- chaos\n%s",
					fresh, w, cleanPayload, got)
			}
		}
	}
}

// TestChaosHealthDeterministicAcrossWorkers: the full report — health line
// included — must not change with the worker count or the pooling mode:
// every fault kind lands the same way on pooled arenas and fresh cars.
func TestChaosHealthDeterministicAcrossWorkers(t *testing.T) {
	plan := determinismPlan(t)
	base, err := Sweep(plan, SweepConfig{
		Fleet: 6, Workers: 1, RootSeed: 1234, Chaos: chaosPlan(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fresh := range []bool{false, true} {
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			rep, err := Sweep(plan, SweepConfig{
				Fleet: 6, Workers: w, RootSeed: 1234,
				FreshVehicles: fresh, Chaos: chaosPlan(),
			})
			if err != nil {
				t.Fatalf("fresh=%v workers=%d: %v", fresh, w, err)
			}
			if rep.String() != base.String() {
				t.Errorf("report (health included) differs between pooled workers=1 and fresh=%v workers=%d\n--- base\n%s--- fresh=%v w=%d\n%s",
					fresh, w, base, fresh, w, rep)
			}
		}
	}
}

// TestChaosPersistentFaultsRecoverWithinBudget: faults that outlive
// MaxRetries attempts (persist = MaxRetries+1) still clear inside a cell's
// attempt budget of 2*MaxRetries+1 retries — the sweep completes with the
// retries booked and the payload byte-identical to the fault-free run.
func TestChaosPersistentFaultsRecoverWithinBudget(t *testing.T) {
	plan := determinismPlan(t)
	const retries = 2
	clean, err := Sweep(plan, SweepConfig{Fleet: 4, Workers: 1, RootSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Sweep(plan, SweepConfig{
		Fleet: 4, Workers: 2, RootSeed: 99, MaxRetries: retries,
		Chaos: &chaos.Plan{Seed: 5, Panic: 0.02, Persist: retries + 1},
	})
	if err != nil {
		t.Fatalf("persistent faults did not clear within the attempt budget: %v", err)
	}
	if rep.Health.PanicRecoveries == 0 || rep.Health.Retries < rep.Health.PanicRecoveries {
		t.Fatalf("no persistent panics booked: %+v", rep.Health)
	}
	if rep.Health.Unrecoverable != 0 {
		t.Fatalf("recovered cells reported unrecoverable: %+v", rep.Health)
	}
	if got := stripHealth(rep.String()); got != stripHealth(clean.String()) {
		t.Errorf("payload diverged through retries:\n--- fault-free\n%s\n--- recovered\n%s", clean, got)
	}
}

// TestChaosUnrecoverableReturnsPartialReport: a fault that persists through
// every attempt of the cell's budget fails the
// sweep — but the error arrives alongside a partial report whose Health
// ledger records the unrecoverable cells.
func TestChaosUnrecoverableReturnsPartialReport(t *testing.T) {
	plan := determinismPlan(t)
	rep, err := Sweep(plan, SweepConfig{
		Fleet: 3, Workers: 2, RootSeed: 7,
		Chaos: &chaos.Plan{Seed: 5, Panic: 1, Persist: 99},
	})
	if err == nil {
		t.Fatal("sweep with unrecoverable faults returned nil error")
	}
	if !errors.Is(err, engine.ErrUnrecoverable) {
		t.Fatalf("error %v does not wrap engine.ErrUnrecoverable", err)
	}
	if rep == nil {
		t.Fatal("no partial report alongside the unrecoverable error")
	}
	if rep.Health.Unrecoverable == 0 {
		t.Fatalf("partial report books no unrecoverable cells: %+v", rep.Health)
	}
	if !strings.Contains(rep.String(), "unrecoverable=") {
		t.Errorf("partial report renders no health line:\n%s", rep)
	}
}
