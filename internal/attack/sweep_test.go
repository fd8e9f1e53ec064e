package attack

import (
	"reflect"
	"testing"
)

func TestRunMatrixAggregatesMatchResults(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()[:4]
	m, err := h.RunMatrix(scenarios, EnforceNone, EnforceHPE)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.Results), len(scenarios)*2; got != want {
		t.Fatalf("len(Results) = %d, want %d", got, want)
	}
	if len(m.Regimes) != 2 || m.Regimes[0].Regime != EnforceNone || m.Regimes[1].Regime != EnforceHPE {
		t.Fatalf("regime order %v, want [none hpe]", m.Regimes)
	}
	// Re-summarising the raw results per regime must reproduce the
	// aggregates the sweep accumulated.
	for i, rs := range m.Regimes {
		var manual Summary
		for _, r := range m.Results {
			if r.Enforcement == rs.Regime {
				manual.Add(r)
			}
		}
		if manual != rs.Summary {
			t.Errorf("regime %d summary = %+v, recomputed %+v", i, rs.Summary, manual)
		}
		if rs.Summary.Runs != len(scenarios) {
			t.Errorf("regime %v Runs = %d, want %d", rs.Regime, rs.Summary.Runs, len(scenarios))
		}
	}
	whole := m.Summary()
	if whole.Runs != len(m.Results) {
		t.Errorf("matrix summary Runs = %d, want %d", whole.Runs, len(m.Results))
	}
	if whole != Summarize(m.Results) {
		t.Errorf("Matrix.Summary() %+v != Summarize(Results) %+v", whole, Summarize(m.Results))
	}
}

func TestRunMatrixUnenforcedAttacksSucceed(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.RunMatrix(Scenarios(), EnforceNone)
	if err != nil {
		t.Fatal(err)
	}
	if rate := m.Regimes[0].Summary.SuccessRate(); rate != 1.0 {
		t.Errorf("unenforced success rate = %v, want 1.0", rate)
	}
}

func TestWithSeedSharesCompiledPolicy(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	h2 := h.WithSeed(99)
	if h2.Seed != 99 || h.Seed == 99 {
		t.Errorf("WithSeed: got h2.Seed=%d h.Seed=%d", h2.Seed, h.Seed)
	}
	if h2.Compiled != h.Compiled {
		t.Error("WithSeed must share the compiled policy")
	}
}

func TestMatrixDeterministicForSameSeed(t *testing.T) {
	h, err := NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	scenarios := Scenarios()[:3]
	run := func(seed uint64) Matrix {
		m, err := h.WithSeed(seed).RunMatrix(scenarios, EnforceNone, EnforceHPE)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same-seed matrices differ")
	}
}

// TestSummaryScaleEqualsRepeatedMerge: scaling is the fold of n copies, the
// identity the fleet engine's cell-major merge rests on.
func TestSummaryScaleEqualsRepeatedMerge(t *testing.T) {
	s := Summary{Runs: 7, Succeeded: 3, Blocked: 2, FalsePositives: 2, Injected: 41,
		WriteBlocked: 5, ReadBlocked: 6, StageRuns: 9, StagesHalted: 1}
	for _, n := range []int{0, 1, 3, 1000} {
		var want Summary
		for i := 0; i < n; i++ {
			want.Merge(s)
		}
		if got := s.Scale(n); got != want {
			t.Errorf("Scale(%d) = %+v, want %+v", n, got, want)
		}
	}
}
