package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/shard"
)

// sweepFlags combines every flag that shapes the whole-fleet engine
// configuration with the parent-only sharding flags.
var sweepFlags = []string{
	"-fleet", "9", "-workers", "3", "-seed", "42",
	"-chaos", "seed=7,panic=0.02,deadline=0.01,crash=0.005,persist=2",
	"-policy-backend", "closure",
	"-reuse=false", "-no-batch",
	"-shards", "3", "-shard-exec", "-shard-parallelism", "2",
}

// TestChildArgsRoundTrip pins the bug class "the parent forgot to forward a
// flag": in every sweeping mode, the shard child's argv must rebuild the
// engine configuration its parent partitions, field for field.
func TestChildArgsRoundTrip(t *testing.T) {
	modes := map[string][]string{
		"campaign": {"-campaign", "../../examples/campaigns/quickstart.campaign"},
		"risk":     {"-risk", "../../examples/threatmodels/connected-car.json"},
		"table-i":  {"-enforcement", "none,software,hpe"},
	}
	for name, mode := range modes {
		for _, flags := range [][]string{nil, sweepFlags} {
			parent := mustParse(t, append(append([]string{}, mode...), flags...))
			if (parent.sweep.SpawnShard != nil) != (flags != nil) {
				t.Fatalf("%s: -shard-exec did not arm the spawn hook", name)
			}
			r := shard.Range{Start: 3, Count: 3}
			child := mustParse(t, childArgs(parent, r))
			if child.shardRange != r.String() || child.sweep.SpawnShard != nil {
				t.Fatalf("%s: child is not a shard child: range %q, spawn %v", name, child.shardRange, child.sweep.SpawnShard != nil)
			}
			want, got := mustEngineConfig(t, parent), mustEngineConfig(t, child)
			if !sameConfig(want, got) {
				t.Errorf("%s %q: child engine config differs from the parent's (child argv %q)",
					name, flags, childArgs(parent, r))
			}
		}
	}
}

// TestParseFlagsRejects pins the flag domain checks, NaN and the
// infinities included: every comparison with NaN is false, so a range
// check written as "< 0 || > 1" lets it through.
func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "-5"}, "-fleet -5 is negative"},
		{[]string{"-workers", "-2"}, "-workers -2 is negative"},
		{[]string{"-chaos", "corrupt=0.1"}, "unknown field"},
		{[]string{"-chaos", "deadline=NaN"}, "bad deadline rate"},
		{[]string{"-shard-wire", "json"}, "JSON shard wire was removed"},
		{[]string{"-shard-wire", "xml"}, "want binary"},
		{[]string{"-shards", "-1"}, "negative"},
		{[]string{"-shard-parallelism", "0"}, "-shard-parallelism"},
		{[]string{"-policy-backend", "bogus"}, "bogus"},
		{[]string{"-chaos", "panic=2"}, "chaos"},
	} {
		_, err := parseFlags(tc.args)
		if err == nil {
			t.Errorf("parseFlags(%q) accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%q) = %v, want mention of %q", tc.args, err, tc.want)
		}
	}
	if _, err := parseFlags([]string{"-fleet", "0", "-workers", "0", "-shard-wire", "binary"}); err != nil {
		t.Errorf("in-domain flags rejected: %v", err)
	}
}

func mustParse(t *testing.T, args []string) *options {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return o
}

func mustEngineConfig(t *testing.T, o *options) engine.Config {
	t.Helper()
	c, err := engineConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameConfig compares two builds of one engine configuration. OnVehicle
// and the harness pointer differ by construction (the harness is compared
// by backend), and scenarios carry closures, so groups compare by name,
// root seed, regimes and scenario identity.
func sameConfig(a, b engine.Config) bool {
	if (a.Harness == nil) != (b.Harness == nil) ||
		a.Harness != nil && a.Harness.Backend != b.Harness.Backend {
		return false
	}
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		ga, gb := a.Groups[i], b.Groups[i]
		if ga.Name != gb.Name || ga.RootSeed != gb.RootSeed ||
			!reflect.DeepEqual(ga.Regimes, gb.Regimes) || len(ga.Scenarios) != len(gb.Scenarios) {
			return false
		}
		for j := range ga.Scenarios {
			sa, sb := ga.Scenarios[j], gb.Scenarios[j]
			if sa.ThreatID != sb.ThreatID || sa.Name != sb.Name || sa.PrefixKey != sb.PrefixKey {
				return false
			}
		}
	}
	for _, c := range []*engine.Config{&a, &b} {
		c.OnVehicle, c.Harness, c.Groups = nil, nil, nil
	}
	return reflect.DeepEqual(a, b)
}
