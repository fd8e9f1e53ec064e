package rollout

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/risk"
	"repro/internal/threatmodel"
)

// testOEM returns a deterministic OEM identity plus the fleet's current set
// (the analysis-derived Table I policy).
func testOEM(t *testing.T) (*core.OEM, *policy.Set) {
	t.Helper()
	oem, err := core.NewOEM(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	current, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		t.Fatal(err)
	}
	return oem, current
}

// storeFleet provisions n policy-store vehicles all running current. failIdx
// marks vehicle indices that reject any bundle newer than their installed
// set (update failures that later retry cleanly would not drill the abort
// path). Returns the vehicles and their stores for end-state assertions.
func storeFleet(t *testing.T, oem *core.OEM, current *policy.Set, n int, failVersion uint64, failIdx ...int) ([]fleet.Vehicle, []*policy.Store) {
	t.Helper()
	base, err := oem.Issue(current)
	if err != nil {
		t.Fatal(err)
	}
	failing := map[int]bool{}
	for _, i := range failIdx {
		failing[i] = true
	}
	opts := policy.CompileOptions{Subjects: car.AllNodes, Modes: car.AllModes}
	vs := make([]fleet.Vehicle, n)
	stores := make([]*policy.Store, n)
	for i := 0; i < n; i++ {
		store := policy.NewStore(oem.PublicKey(), opts)
		if _, err := store.Apply(base); err != nil {
			t.Fatalf("provisioning vehicle %d: %v", i, err)
		}
		stores[i] = store
		idx := i
		vs[i] = fleet.VehicleFunc{
			VID: fmt.Sprintf("VIN-%03d", i),
			Fn: func(b *policy.Bundle) error {
				if s := store.CurrentSet(); s != nil && s.Version >= b.Version {
					return nil
				}
				if failing[idx] && b.Version == failVersion {
					return fmt.Errorf("simulated failure %d", idx)
				}
				_, err := store.Apply(b)
				return err
			},
		}
	}
	return vs, stores
}

// benignCandidate is the current set re-issued at the next version.
func benignCandidate(current *policy.Set) *policy.Set {
	cand := *current
	cand.Rules = append([]policy.Rule(nil), current.Rules...)
	cand.Version = current.Version + 1
	return &cand
}

// flawedCandidate opens the whole identifier space — residual risk must
// regress under any measured gate.
func flawedCandidate(current *policy.Set) *policy.Set {
	cand := benignCandidate(current)
	cand.Rules = append(cand.Rules, policy.Rule{
		Name:    "overbroad",
		Subject: policy.SubjectAll,
		Effect:  policy.Allow,
		Action:  policy.ActReadWrite,
		IDs:     policy.IDSet{{Lo: 0, Hi: 0x7FF}},
	})
	return cand
}

func gateSpec() *risk.Spec { return &risk.Spec{Model: "connected-car", Seed: 1} }

func TestRolloutCleanAdvance(t *testing.T) {
	oem, current := testOEM(t)
	cand := benignCandidate(current)
	vehicles, stores := storeFleet(t, oem, current, 40, 0)
	out, err := Run(Config{
		OEM: oem, Current: current, Candidate: cand,
		Vehicles: vehicles, GateSpec: gateSpec(), RootSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Advanced() || out.RolledBack {
		t.Fatalf("benign candidate did not advance: %s", out)
	}
	if !out.Diff.Empty() {
		t.Fatalf("benign re-issue produced a semantic diff:\n%s", out.Diff)
	}
	if len(out.Evidence) == 0 {
		t.Fatal("no gate evidence recorded")
	}
	for _, ev := range out.Evidence {
		if ev.Regressed {
			t.Fatalf("benign candidate regressed at stage %d: %+v", ev.Stage, ev)
		}
		if ev.BaselineResidual != ev.CandidateResidual {
			t.Fatalf("identical semantics measured different residuals: %+v", ev)
		}
	}
	for i, s := range stores {
		if got := s.CurrentSet().Version; got != cand.Version {
			t.Fatalf("vehicle %d at version %d, want %d", i, got, cand.Version)
		}
	}
}

func TestRolloutGateVetoRollsBack(t *testing.T) {
	oem, current := testOEM(t)
	cand := flawedCandidate(current)
	vehicles, stores := storeFleet(t, oem, current, 40, 0)
	out, err := Run(Config{
		OEM: oem, Current: current, Candidate: cand,
		Vehicles: vehicles, GateSpec: gateSpec(), RootSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack {
		t.Fatalf("flawed candidate was not rolled back: %s", out)
	}
	if out.Report.GateVeto == "" || !strings.Contains(out.Report.GateVeto, "residual risk regressed") {
		t.Fatalf("gate veto not recorded: %q", out.Report.GateVeto)
	}
	var regressed bool
	for _, ev := range out.Evidence {
		if ev.Regressed {
			regressed = true
			if ev.CandidateResidual <= ev.BaselineResidual {
				t.Fatalf("regressed evidence without a regression: %+v", ev)
			}
		}
	}
	if !regressed {
		t.Fatal("no regressed evidence entry despite rollback")
	}
	// Version monotonicity: the rollback re-issues the prior set one past
	// the candidate, and every vehicle — canaries that took the candidate
	// included — converges on it.
	if want := cand.Version + 1; out.RollbackVersion != want {
		t.Fatalf("rollback version %d, want %d", out.RollbackVersion, want)
	}
	if out.RollbackReport.Failed != 0 {
		t.Fatalf("rollback distribution failed on %d vehicles", out.RollbackReport.Failed)
	}
	for i, s := range stores {
		got := s.CurrentSet()
		if got.Version != out.RollbackVersion {
			t.Fatalf("vehicle %d at version %d, want %d", i, got.Version, out.RollbackVersion)
		}
		if len(got.Rules) != len(current.Rules) {
			t.Fatalf("vehicle %d kept the flawed semantics (%d rules, want %d)",
				i, len(got.Rules), len(current.Rules))
		}
	}
}

func TestRolloutThresholdAbortRollsBack(t *testing.T) {
	oem, current := testOEM(t)
	cand := benignCandidate(current)
	// DefaultPlan on 40 vehicles: stage 1 covers vehicles [0, 4). Two
	// failures of four exceed the 5% threshold.
	vehicles, stores := storeFleet(t, oem, current, 40, cand.Version, 1, 2)
	out, err := Run(Config{
		OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.RolledBack {
		t.Fatalf("threshold abort did not roll back: %s", out)
	}
	if out.Report.GateVeto != "" {
		t.Fatalf("threshold abort recorded a gate veto: %q", out.Report.GateVeto)
	}
	if len(out.Evidence) != 0 {
		t.Fatalf("ungated run recorded evidence: %+v", out.Evidence)
	}
	for i, s := range stores {
		if got := s.CurrentSet().Version; got != out.RollbackVersion {
			t.Fatalf("vehicle %d at version %d, want %d", i, got, out.RollbackVersion)
		}
	}
}

func TestRolloutTranscriptDeterministic(t *testing.T) {
	render := func() string {
		oem, current := testOEM(t)
		cand := flawedCandidate(current)
		vehicles, _ := storeFleet(t, oem, current, 25, 0)
		out, err := Run(Config{
			OEM: oem, Current: current, Candidate: cand,
			Vehicles: vehicles, GateSpec: gateSpec(), RootSeed: 7, Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a := render()
	// A different shard count must not perturb a single byte of evidence.
	oem, current := testOEM(t)
	cand := flawedCandidate(current)
	vehicles, _ := storeFleet(t, oem, current, 25, 0)
	out, err := Run(Config{
		OEM: oem, Current: current, Candidate: cand,
		Vehicles: vehicles, GateSpec: gateSpec(), RootSeed: 7, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b := out.String(); a != b {
		t.Fatalf("transcript varies across shard counts:\n--- shards=1\n%s\n--- shards=3\n%s", a, b)
	}
}

func TestRolloutConfigValidation(t *testing.T) {
	oem, current := testOEM(t)
	cand := benignCandidate(current)
	vehicles, _ := storeFleet(t, oem, current, 3, 0)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil OEM", Config{Current: current, Candidate: cand, Vehicles: vehicles}},
		{"nil candidate", Config{OEM: oem, Current: current, Vehicles: vehicles}},
		{"no vehicles", Config{OEM: oem, Current: current, Candidate: cand}},
		{"non-advancing version", Config{OEM: oem, Current: cand, Candidate: current, Vehicles: vehicles}},
		// A NaN tolerance fails every gate comparison, so a regressed
		// candidate would advance; an infinite one vetoes nothing.
		{"NaN tolerance", Config{OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles, Tolerance: math.NaN()}},
		{"+Inf tolerance", Config{OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles, Tolerance: math.Inf(1)}},
		{"-Inf tolerance", Config{OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles, Tolerance: math.Inf(-1)}},
		{"negative tolerance", Config{OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles, Tolerance: -0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestRolloutDuplicateVehicleIDRejected(t *testing.T) {
	oem, current := testOEM(t)
	cand := benignCandidate(current)
	vehicles, _ := storeFleet(t, oem, current, 4, 0)
	dup, _ := storeFleet(t, oem, current, 1, 0)
	vehicles = append(vehicles, dup...) // VIN-000 twice
	_, err := Run(Config{OEM: oem, Current: current, Candidate: cand, Vehicles: vehicles})
	if !errors.Is(err, fleet.ErrDuplicateID) {
		t.Fatalf("duplicate VIN not rejected: %v", err)
	}
}

// TestGateSweepsOncePerRollout pins the gate's measurement budget: the
// residual pair does not depend on the cohort size, so a 4-stage advancing
// rollout runs exactly one baseline and one candidate sweep (counted from
// the telemetry lines each sweep emits), while every stage still records
// its own evidence.
func TestGateSweepsOncePerRollout(t *testing.T) {
	oem, current := testOEM(t)
	vehicles, _ := storeFleet(t, oem, current, 100, 0) // cohorts 1, 9, 40, 50
	var telemetry bytes.Buffer
	out, err := Run(Config{
		OEM: oem, Current: current, Candidate: benignCandidate(current),
		Vehicles: vehicles, GateSpec: gateSpec(), RootSeed: 1, Telemetry: &telemetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Advanced() || len(out.Evidence) != 4 {
		t.Fatalf("want a 4-stage advance, got %d gated stages:\n%s", len(out.Evidence), out)
	}
	if n := strings.Count(telemetry.String(), "telemetry: gate="); n != 2 {
		t.Errorf("rollout ran %d gate sweeps, want 2:\n%s", n, telemetry.String())
	}
	for i, ev := range out.Evidence {
		if ev.Stage != i || ev.Cohort != out.Report.Stages[i].Attempted {
			t.Errorf("evidence %d is stamped stage %d cohort %d, want stage %d cohort %d",
				i, ev.Stage, ev.Cohort, i, out.Report.Stages[i].Attempted)
		}
	}
}
