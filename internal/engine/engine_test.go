package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/threatmodel"
)

// quickConfig keeps unit-test runs fast: a small scenario slice and a short
// traffic horizon.
func quickConfig(fleetSize, workers int) Config {
	return Config{
		Fleet:   fleetSize,
		Workers: workers,
		Groups: []ScenarioGroup{{
			Scenarios: attack.Scenarios()[:3],
			Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
			RootSeed:  0xC0FFEE,
		}},
		TrafficHorizon: 10 * time.Millisecond,
	}
}

func TestVehicleSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := VehicleSeed(42, i)
		if s != VehicleSeed(42, i) {
			t.Fatalf("VehicleSeed(42, %d) unstable", i)
		}
		if seen[s] {
			t.Fatalf("VehicleSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if VehicleSeed(1, 0) == VehicleSeed(2, 0) {
		t.Error("different roots produced the same vehicle seed")
	}
}

func TestVINMatchesSprintf(t *testing.T) {
	for _, tc := range []struct {
		index int
		want  string
	}{
		{0, "VIN-000000"},
		{7, "VIN-000007"},
		{999999, "VIN-999999"},
		{1000000, "VIN-1000000"},
	} {
		if got := VIN(tc.index); got != tc.want {
			t.Errorf("VIN(%d) = %q, want %q", tc.index, got, tc.want)
		}
	}
	for i := -3; i < 3_000_000; i += 1 + i/100 {
		if got, want := VIN(i), fmt.Sprintf("VIN-%06d", i); got != want {
			t.Fatalf("VIN(%d) = %q, fmt gives %q", i, got, want)
		}
	}
}

func TestRunSingleVehicle(t *testing.T) {
	r, err := Run(quickConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vehicles) != 1 {
		t.Fatalf("vehicles = %d, want 1", len(r.Vehicles))
	}
	v := r.Vehicles[0]
	if v.FramesDelivered == 0 {
		t.Error("background simulation delivered no frames")
	}
	if v.Utilisation <= 0 {
		t.Error("background simulation reports zero bus utilisation")
	}
	if v.MACChecks == 0 || v.MACAllowed == 0 {
		t.Errorf("MAC probe checks=%d allowed=%d, want both > 0", v.MACChecks, v.MACAllowed)
	}
	// The spoof probe (infotainment -> ECU command) must be denied.
	if v.MACAllowed >= v.MACChecks {
		t.Errorf("MAC probe allowed %d of %d checks; the spoof probe should be denied",
			v.MACAllowed, v.MACChecks)
	}
	if len(v.Groups) != 1 || len(v.Groups[0]) != 2 {
		t.Fatalf("attack groups = %d, want one group of 2 regimes", len(v.Groups))
	}
	attacks := v.Groups[0]
	if attacks[0].Summary.SuccessRate() != 1.0 {
		t.Errorf("unenforced success rate = %v, want 1.0", attacks[0].Summary.SuccessRate())
	}
	if attacks[1].Summary.BlockRate() != 1.0 {
		t.Errorf("HPE block rate = %v, want 1.0", attacks[1].Summary.BlockRate())
	}
}

func TestRunMergesVehicleOrderIndependentOfWorkers(t *testing.T) {
	serial, err := Run(quickConfig(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(quickConfig(12, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Vehicles {
		if serial.Vehicles[i].Index != i || parallel.Vehicles[i].Index != i {
			t.Fatalf("vehicle %d out of order", i)
		}
	}
	// Worker count is part of the report header; normalise it before the
	// byte comparison so only the merged simulation output is compared.
	parallel.Workers = serial.Workers
	if serial.String() != parallel.String() {
		t.Error("fleet report depends on worker count")
	}
}

// TestRunDeterministic100Vehicles8Workers is the PR's acceptance criterion:
// engine.Run with 100 vehicles on 8 workers produces byte-identical
// aggregate reports across two runs with the same root seed.
func TestRunDeterministic100Vehicles8Workers(t *testing.T) {
	if testing.Short() {
		t.Skip("100-vehicle sweep in -short mode")
	}
	cfg := quickConfig(100, 8)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two runs with the same root seed rendered different fleet reports")
	}
	if a.Fleet != 100 || a.Workers != 8 {
		t.Fatalf("config echo fleet=%d workers=%d", a.Fleet, a.Workers)
	}
	// Fleet-wide aggregates must equal the fold of per-vehicle reports.
	var delivered uint64
	for _, v := range a.Vehicles {
		delivered += v.FramesDelivered
	}
	if delivered != a.FramesDelivered {
		t.Errorf("merged FramesDelivered %d != vehicle sum %d", a.FramesDelivered, delivered)
	}
	if got := a.Attacks[0].Summary.Runs; got != 100*3 {
		t.Errorf("unenforced runs = %d, want 300", got)
	}
}

func TestHostedFleetCanaryRollout(t *testing.T) {
	oem, err := core.NewOEM(testEntropy{})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(40, 7, oem.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	analysis, err := car.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	set, err := threatmodel.DerivePolicies(analysis, "table-i", 3)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := oem.Issue(set)
	if err != nil {
		t.Fatal(err)
	}

	plan := fleet.DefaultPlan()
	plan.Workers = 4
	report, err := fleet.Rollout(host.FleetVehicles(), bundle, plan)
	if err != nil {
		t.Fatal(err)
	}
	if report.Aborted {
		t.Fatalf("clean rollout aborted: %s", report)
	}
	if report.Applied != host.Len() {
		t.Errorf("applied %d of %d live vehicles", report.Applied, host.Len())
	}
	for i, ver := range host.PolicyVersions() {
		if ver != 3 {
			t.Errorf("vehicle %d runs policy v%d, want v3", i, ver)
		}
	}
	// The installed policy must actually filter on the live bus: a spoofed
	// ECU-disable from the infotainment node dies at its write filter.
	hv := host.Vehicle(0)
	node, ok := hv.Car.Node(car.NodeInfotainment)
	if !ok {
		t.Fatal("missing infotainment node")
	}
	before := hv.Car.Bus().Stats().WriteBlocked
	f, err := canbus.NewDataFrame(car.IDECUCommand, []byte{car.OpDisable})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Send(f); err != nil {
		t.Fatal(err)
	}
	hv.Car.Scheduler().Run()
	if got := hv.Car.Bus().Stats().WriteBlocked; got != before+1 {
		t.Errorf("WriteBlocked = %d, want %d: live policy did not filter the spoof", got, before+1)
	}
	if !hv.Car.State().Propulsion {
		t.Error("spoofed disable reached the ECU on a policy-updated live vehicle")
	}
}

// testEntropy is a deterministic reader for test key generation.
type testEntropy struct{}

func (testEntropy) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i*31 + 11)
	}
	return len(p), nil
}
