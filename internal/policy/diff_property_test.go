package policy_test

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/policy"
	"repro/internal/policy/difftest"
)

// bruteDiff is the reference DiffSets: the per-cell Decide comparison over
// the same subjects, modes and identifier universe.
func bruteDiff(t *testing.T, oldSet, newSet *policy.Set, opts policy.DiffOptions) policy.Diff {
	t.Helper()
	subjects := opts.Subjects
	if len(subjects) == 0 {
		seen := map[string]bool{}
		for _, s := range append(oldSet.Subjects(), newSet.Subjects()...) {
			if !seen[s] {
				seen[s] = true
				subjects = append(subjects, s)
			}
		}
		sort.Strings(subjects)
	}
	modes := opts.Modes
	if len(modes) == 0 {
		seen := map[policy.Mode]bool{}
		for _, m := range append(oldSet.Modes(), newSet.Modes()...) {
			if !seen[m] {
				seen[m] = true
				modes = append(modes, m)
			}
		}
		sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
		if len(modes) == 0 {
			modes = []policy.Mode{"default"}
		}
	}
	var universe policy.IDSet
	for _, r := range append(append([]policy.Rule(nil), oldSet.Rules...), newSet.Rules...) {
		universe = append(universe, r.IDs...)
	}
	ids, err := universe.Enumerate(policy.TableLimit)
	if err != nil {
		t.Fatal(err)
	}
	var d policy.Diff
	for _, subj := range subjects {
		for _, mode := range modes {
			for _, act := range []policy.Action{policy.ActRead, policy.ActWrite} {
				for _, id := range ids {
					was := oldSet.Decide(subj, mode, act, id) == policy.Allow
					is := newSet.Decide(subj, mode, act, id) == policy.Allow
					switch {
					case is && !was:
						d.Granted = append(d.Granted, policy.Access{Subject: subj, Mode: mode, Action: act, ID: id})
					case was && !is:
						d.Revoked = append(d.Revoked, policy.Access{Subject: subj, Mode: mode, Action: act, ID: id})
					}
				}
			}
		}
	}
	return d
}

// TestDiffSetsMatchesDecideProperty holds DiffSets to the brute-force
// per-cell Decide comparison on GenPolicy pairs, both over the universe
// DiffSets derives from the sets and over an explicit device model.
func TestDiffSetsMatchesDecideProperty(t *testing.T) {
	prop := func(a, b []byte) bool {
		oldSet, dev := difftest.GenPolicy(a)
		newSet, _ := difftest.GenPolicy(b)
		newSet.Version = 2
		for _, opts := range []policy.DiffOptions{{}, {Subjects: dev.Subjects, Modes: dev.Modes}} {
			got, err := policy.DiffSets(oldSet, newSet, opts)
			if err != nil {
				t.Logf("DiffSets: %v", err)
				return false
			}
			if want := bruteDiff(t, oldSet, newSet, opts); !reflect.DeepEqual(got, want) {
				t.Logf("opts %+v:\nold:\n%s\nnew:\n%s\nDiffSets:\n%s\nbrute force:\n%s", opts, oldSet, newSet, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
