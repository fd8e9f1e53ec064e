package attack

// This file implements prefix grouping: bucketing a scenario set's cells by
// the pre-attack prefix they share, so a cell-major fleet sweep can hand
// each bucket to one worker as a unit of work. Every cell still runs through
// Arena.Run (reset, regime provisioning, setup replay, tail); the grouping
// only decides which cells travel together.
//
// Bucketing is grouping, not reordering of work the caller can observe: the
// sweep only produces per-regime aggregates and every fold into them
// (Summary.Add) is a commutative integer add, so bucket-major execution is
// invisible in the output. That is what lets the planner bucket scenarios
// whose shared-prefix siblings ended up scattered by the campaign compiler's
// sample shuffle.

// PlanBatches buckets scenarios by PrefixKey and returns the buckets as
// lists of scenario indices. Scenarios with equal non-zero keys share a
// bucket (they promise an identical prefix: same Setup func or none); a zero
// key opts a scenario out of grouping and yields a singleton bucket.
// Buckets keep first-appearance order and scenario order within, so
// planning is deterministic. The result holds no vehicle state, so one plan
// is shared read-only by every worker of a fleet sweep.
func PlanBatches(scenarios []Scenario) [][]int {
	var buckets [][]int
	index := make(map[uint64]int, len(scenarios))
	for i := range scenarios {
		key := scenarios[i].PrefixKey
		if key == 0 {
			buckets = append(buckets, []int{i})
			continue
		}
		bi, ok := index[key]
		if !ok {
			bi = len(buckets)
			index[key] = bi
			buckets = append(buckets, nil)
		}
		buckets[bi] = append(buckets[bi], i)
	}
	return buckets
}
