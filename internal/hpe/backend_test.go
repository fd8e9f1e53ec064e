package hpe

import (
	"testing"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
	"repro/internal/sim"
)

// buildEnforcer compiles the shared test policy with the named backend.
func buildEnforcer(t *testing.T, backend string) ir.Enforcer {
	t.Helper()
	set, err := policy.Parse(testPolicy)
	if err != nil {
		t.Fatal(err)
	}
	enf, err := ir.Build(set, policy.CompileOptions{
		Subjects: []string{"ecu"},
		Modes:    []policy.Mode{"Normal", "Diag"},
		Backend:  backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	return enf
}

// TestInstallEnforcerDecisionsMatchTable drives every registered backend
// through the engine's Decide path and requires verdicts identical to an
// Install of the directly compiled table, in every mode and direction, with
// and without the single-owner cache — and Decide never allocating.
func TestInstallEnforcerDecisionsMatchTable(t *testing.T) {
	probes := []struct {
		dir canbus.Direction
		id  uint32
	}{
		{canbus.Read, 0x100}, {canbus.Write, 0x100},
		{canbus.Read, 0x200}, {canbus.Write, 0x200},
		{canbus.Read, 0x7DF}, {canbus.Write, 0x7DF},
		{canbus.Read, 0x123}, {canbus.Write, 0x123},
	}
	for _, mode := range []policy.Mode{"Normal", "Diag", "Limp"} {
		ref := newEngine(t, mode)
		for _, backend := range ir.Names() {
			for _, single := range []bool{false, true} {
				e := New("ecu", FixedMode(mode), DefaultCycleModel())
				e.SetSingleOwner(single)
				if err := e.InstallEnforcer(buildEnforcer(t, backend)); err != nil {
					t.Fatalf("InstallEnforcer(%s): %v", backend, err)
				}
				if e.Backend() != backend {
					t.Errorf("Backend() = %q, want %q", e.Backend(), backend)
				}
				if !e.Installed() {
					t.Fatalf("%s engine claims not installed", backend)
				}
				for _, p := range probes {
					want := ref.Decide(p.dir, frame(p.id))
					if got := e.Decide(p.dir, frame(p.id)); got != want {
						t.Errorf("%s (single=%v) mode %s: Decide(%v, 0x%X) = %v, want %v",
							backend, single, mode, p.dir, p.id, got, want)
					}
				}
				granted, blocked := frame(0x100), frame(0x123)
				allocs := testing.AllocsPerRun(100, func() {
					e.Decide(canbus.Read, granted)
					e.Decide(canbus.Write, blocked)
				})
				if allocs != 0 {
					t.Errorf("%s (single=%v) mode %s: Decide allocates %.1f/op, want 0", backend, single, mode, allocs)
				}
			}
		}
	}
}

// TestReinstallEnforcerReusesInstall requires the pooled fast path to count
// an install without rebuilding, and a different enforcer to swap fully.
func TestReinstallEnforcerReusesInstall(t *testing.T) {
	enf := buildEnforcer(t, "closure")
	e := New("ecu", FixedMode("Normal"), DefaultCycleModel())
	if err := e.InstallEnforcer(enf); err != nil {
		t.Fatal(err)
	}
	if err := e.ReinstallEnforcer(enf); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Installs; got != 2 {
		t.Errorf("Installs = %d, want 2", got)
	}
	other := buildEnforcer(t, "expr")
	if err := e.ReinstallEnforcer(other); err != nil {
		t.Fatal(err)
	}
	if e.Backend() != "expr" {
		t.Errorf("after swap Backend() = %q, want expr", e.Backend())
	}
}

// TestDeployEnforcer mirrors TestDeploy on the enforcer path.
func TestDeployEnforcer(t *testing.T) {
	bus := canbus.New(&sim.Scheduler{}, canbus.Config{})
	bus.MustAttach("ecu")
	engines, err := DeployEnforcer(bus, buildEnforcer(t, "expr"), FixedMode("Normal"), DefaultCycleModel(), "ecu")
	if err != nil {
		t.Fatal(err)
	}
	if engines["ecu"].Backend() != "expr" {
		t.Errorf("deployed backend = %q, want expr", engines["ecu"].Backend())
	}
	if _, err := DeployEnforcer(bus, buildEnforcer(t, "expr"), FixedMode("Normal"), DefaultCycleModel(), "ghost"); err == nil {
		t.Error("unknown node: want error")
	}
}
