package rollout

import "testing"

// TestGateResidualIndependentOfCohort proves what the gate's per-cohort
// sweeps rest on: a cohort's residual risk is a property of the policy
// and the gate spec, not of how many vehicles the sweep simulates. Both the
// Table I set and a flawed candidate measure the same residual at every
// cohort size.
func TestGateResidualIndependentOfCohort(t *testing.T) {
	_, current := testOEM(t)
	cfg := Config{Current: current, Candidate: flawedCandidate(current), GateSpec: gateSpec(), Workers: 2}
	g, err := newResidualGate(&cfg, &Outcome{})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(label string, cohort int) float64 {
		h := g.baseH
		if label == "candidate" {
			h = g.candH
		}
		r, err := g.residual(label, cohort, h)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, cand := measure("baseline", 1), measure("candidate", 1)
	if cand <= base {
		t.Fatalf("flawed candidate residual %.4f does not exceed the Table I set's %.4f", cand, base)
	}
	for _, cohort := range []int{7, 300} {
		if got := measure("baseline", cohort); got != base {
			t.Errorf("Table I residual at cohort %d = %v, at cohort 1 = %v", cohort, got, base)
		}
		if got := measure("candidate", cohort); got != cand {
			t.Errorf("flawed candidate residual at cohort %d = %v, at cohort 1 = %v", cohort, got, cand)
		}
	}
}
