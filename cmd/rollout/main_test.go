package main

import (
	"math"
	"strings"
	"testing"
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
