package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
)

// TestRunRejectsOutOfDomainFlags pins the flag domain checks, NaN and the
// infinities included. A NaN -tolerance once advanced a flawed candidate:
// every gate comparison with NaN is false, so nothing regressed. Negative
// -workers/-shards are rejected too, matching carsim, instead of being
// coerced to their defaults.
func TestRunRejectsOutOfDomainFlags(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		applyFail, tolerance float64
		workers, shards      int
		want                 string
	}{
		{"apply-fail NaN", math.NaN(), 0, 1, 0, "-apply-fail"},
		{"apply-fail +Inf", math.Inf(1), 0, 1, 0, "-apply-fail"},
		{"apply-fail -Inf", math.Inf(-1), 0, 1, 0, "-apply-fail"},
		{"apply-fail negative", -0.1, 0, 1, 0, "-apply-fail"},
		{"tolerance NaN", 0, math.NaN(), 1, 0, "-tolerance"},
		{"tolerance +Inf", 0, math.Inf(1), 1, 0, "-tolerance"},
		{"tolerance -Inf", 0, math.Inf(-1), 1, 0, "-tolerance"},
		{"tolerance negative", 0, -0.5, 1, 0, "-tolerance"},
		{"workers negative", 0, 0, -2, 0, "-workers -2 is negative"},
		{"shards negative", 0, 0, 1, -2, "-shards -2 is negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, err := run(4, "", "rollback", tc.applyFail, 1, tc.workers, tc.shards, tc.tolerance, false, "")
			if err == nil || code != 1 {
				t.Fatalf("run = (%d, %v), want exit 1 with an error", code, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestBuildFleetProvisionsInParallel provisions more vehicles than workers
// (run it under -race): every vehicle ends on the current set, takes the
// next version once and treats a re-run as already current. A set no
// vehicle can compile fails every store; the error names vehicle 0 however
// the workers interleave.
func TestBuildFleetProvisionsInParallel(t *testing.T) {
	oem, err := core.NewOEM(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if err != nil {
		t.Fatal(err)
	}
	current := policy.MustParse(`policy "p" version 1 { allow read 0x100 at EV-ECU }`)
	const n = 33
	vehicles, err := buildFleet(oem, current, n, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := *current
	next.Version = 2
	bundle, err := oem.Issue(&next)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vehicles {
		if want := fmt.Sprintf("VIN-%06d", i); v.ID() != want {
			t.Fatalf("vehicle %d ID %q, want %q", i, v.ID(), want)
		}
		for pass := 0; pass < 2; pass++ {
			if err := v.Apply(bundle); err != nil {
				t.Fatalf("vehicle %d pass %d: %v", i, pass, err)
			}
		}
	}

	tooBig := policy.MustParse(`policy "p" version 1 { allow read 0..0x2000 at EV-ECU }`)
	_, err = buildFleet(oem, tooBig, n, 2, 0, 1)
	if err == nil || !strings.HasPrefix(err.Error(), "provisioning vehicle 0:") {
		t.Fatalf("err = %v, want a vehicle 0 provisioning failure", err)
	}
}
