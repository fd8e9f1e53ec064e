//go:build race

package engine_test

// scaleFleet is TestFleetScalesExactly's fleet. The race detector multiplies
// the memory of the fleet's vehicle reports (~270 MB at 10⁶) several times
// over, so race builds check the same property at 10⁵.
const scaleFleet = 100_000
