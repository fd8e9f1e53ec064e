package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsOutOfDomainFlags pins the flag domain checks, NaN and the
// infinities included. A NaN -tolerance once advanced a flawed candidate:
// every gate comparison with NaN is false, so nothing regressed.
func TestRunRejectsOutOfDomainFlags(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		applyFail, tolerance float64
		want                 string
	}{
		{"apply-fail NaN", math.NaN(), 0, "-apply-fail"},
		{"apply-fail +Inf", math.Inf(1), 0, "-apply-fail"},
		{"apply-fail -Inf", math.Inf(-1), 0, "-apply-fail"},
		{"apply-fail negative", -0.1, 0, "-apply-fail"},
		{"tolerance NaN", 0, math.NaN(), "-tolerance"},
		{"tolerance +Inf", 0, math.Inf(1), "-tolerance"},
		{"tolerance -Inf", 0, math.Inf(-1), "-tolerance"},
		{"tolerance negative", 0, -0.5, "-tolerance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, err := run(4, "", "rollback", tc.applyFail, 1, 1, 0, tc.tolerance, false, "")
			if err == nil || code != 1 {
				t.Fatalf("run = (%d, %v), want exit 1 with an error", code, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
