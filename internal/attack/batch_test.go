package attack

import (
	"reflect"
	"testing"
)

// TestPlanBatchesGroupsByPrefixKey: equal non-zero keys share a bucket
// however the compiler's shuffle scattered them, a zero key always forms
// its own bucket, and buckets keep first-appearance order with scenario
// order inside — so every scenario lands in exactly one bucket and the
// plan is a pure function of the scenario list.
func TestPlanBatchesGroupsByPrefixKey(t *testing.T) {
	keys := []uint64{7, 0, 3, 7, 0, 3, 7, 9}
	scs := make([]Scenario, len(keys))
	for i, k := range keys {
		scs[i].PrefixKey = k
	}
	want := [][]int{{0, 3, 6}, {1}, {2, 5}, {4}, {7}}
	if got := PlanBatches(scs); !reflect.DeepEqual(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
}
