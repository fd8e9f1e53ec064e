//go:build !race

package engine_test

// scaleFleet is TestFleetScalesExactly's fleet.
const scaleFleet = 1_000_000
