package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func compileOpts(kind LookupKind) CompileOptions {
	return CompileOptions{
		Subjects: []string{"ecu", "sensors", "other"},
		Modes:    []Mode{"Normal", "Diag"},
		Lookup:   kind,
	}
}

func TestCompileMatchesDecide(t *testing.T) {
	// The compiled tables must agree with direct Set evaluation everywhere.
	s := testSet()
	for _, kind := range []LookupKind{LookupBitmap, LookupHash, LookupSorted, LookupLinear} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, err := Compile(s, compileOpts(kind))
			if err != nil {
				t.Fatal(err)
			}
			for _, subj := range compileOpts(kind).Subjects {
				nt := c.Node(subj)
				for _, mode := range []Mode{"Normal", "Diag"} {
					mt := nt.Table(mode)
					for id := uint32(0); id <= MaxStandardID; id++ {
						wantR := s.Decide(subj, mode, ActRead, id) == Allow
						wantW := s.Decide(subj, mode, ActWrite, id) == Allow
						if got := mt.Reads.Contains(id); got != wantR {
							t.Fatalf("%s/%s read 0x%X: table=%v decide=%v", subj, mode, id, got, wantR)
						}
						if got := mt.Writes.Contains(id); got != wantW {
							t.Fatalf("%s/%s write 0x%X: table=%v decide=%v", subj, mode, id, got, wantW)
						}
					}
				}
			}
		})
	}
}

func TestCompileUnknownSubjectAndModeDenyAll(t *testing.T) {
	c, err := Compile(testSet(), compileOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	ghost := c.Node("ghost")
	mt := ghost.Table("Normal")
	if mt.Reads.Len() != 0 || mt.Writes.Len() != 0 {
		t.Error("unknown subject should have deny-all tables")
	}
	known := c.Node("ecu")
	um := known.Table("UnknownMode")
	if um.Reads != nil && um.Reads.Len() != 0 {
		t.Error("unknown mode should fall back to deny-all")
	}
}

func TestCompileRequiresSubjectsAndModes(t *testing.T) {
	if _, err := Compile(testSet(), CompileOptions{Modes: []Mode{"m"}}); err == nil {
		t.Error("missing subjects accepted")
	}
	if _, err := Compile(testSet(), CompileOptions{Subjects: []string{"s"}}); err == nil {
		t.Error("missing modes accepted")
	}
}

func TestCompileTableLimit(t *testing.T) {
	s := &Set{Name: "big", Version: 1, Rules: []Rule{
		{Subject: "x", Effect: Allow, Action: ActRead, IDs: Span(0, 99)},
	}}
	opts := CompileOptions{Subjects: []string{"x"}, Modes: []Mode{"m"}, TableLimit: 50}
	if _, err := Compile(s, opts); err == nil {
		t.Error("table limit not enforced")
	}
	opts.TableLimit = 200
	if _, err := Compile(s, opts); err != nil {
		t.Errorf("compile under the limit failed: %v", err)
	}
}

func TestCompiledMetadata(t *testing.T) {
	c, err := Compile(testSet(), compileOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "test" || c.Version != 1 {
		t.Errorf("metadata = %s/%d", c.Name, c.Version)
	}
	subs := c.Subjects()
	if len(subs) != 3 {
		t.Errorf("Subjects = %v", subs)
	}
}

func TestLookupKindsAgreeProperty(t *testing.T) {
	prop := func(rawIDs []uint16, probe uint16) bool {
		ids := make([]uint32, len(rawIDs))
		for i, v := range rawIDs {
			ids[i] = uint32(v)
		}
		h, err1 := NewIDLookup(LookupHash, ids)
		s, err2 := NewIDLookup(LookupSorted, ids)
		l, err3 := NewIDLookup(LookupLinear, ids)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		p := uint32(probe)
		return h.Contains(p) == s.Contains(p) && s.Contains(p) == l.Contains(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLookupIDsSorted(t *testing.T) {
	ids := []uint32{9, 3, 7, 3, 1}
	for _, kind := range []LookupKind{LookupHash, LookupSorted, LookupLinear} {
		l, err := NewIDLookup(kind, ids)
		if err != nil {
			t.Fatal(err)
		}
		got := l.IDs()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("%v IDs not sorted: %v", kind, got)
			}
		}
	}
	if _, err := NewIDLookup(LookupKind(99), ids); err == nil {
		t.Error("invalid lookup kind accepted")
	}
}

// randomCompileCase draws a rule set and device model that exercise every
// painting rule: deny-overrides, "*" subjects, mode-restricted rules, rules
// for a subject or mode the device does not have, extended identifiers
// (bitmap falls back to hash), and duplicate subjects or modes in the
// options.
func randomCompileCase(rng *rand.Rand) (*Set, CompileOptions) {
	subjects := []string{"ecu", "brakes", "dash", "ghost", SubjectAll}
	modes := []Mode{"Normal", "Diag", "FailSafe", "Track"}
	s := &Set{Name: "prop", Version: 1}
	for n := rng.Intn(12); n > 0; n-- {
		r := Rule{
			Subject: subjects[rng.Intn(len(subjects))],
			Effect:  []Effect{Allow, Deny}[rng.Intn(2)],
			Action:  []Action{ActRead, ActWrite, ActReadWrite}[rng.Intn(3)],
		}
		for _, m := range modes {
			if rng.Intn(4) == 0 {
				r.Modes = r.Modes.Add(m)
			}
		}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			lo := uint32(rng.Intn(0x40))
			if rng.Intn(5) == 0 {
				lo += 0x7F0 // crosses MaxStandardID
			}
			r.IDs = append(r.IDs, IDRange{Lo: lo, Hi: lo + uint32(rng.Intn(0x18))})
		}
		s.Rules = append(s.Rules, r)
	}
	opts := CompileOptions{
		Lookup: []LookupKind{0, LookupBitmap, LookupHash, LookupSorted, LookupLinear}[rng.Intn(5)],
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		opts.Subjects = append(opts.Subjects, subjects[rng.Intn(3)])
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		opts.Modes = append(opts.Modes, modes[rng.Intn(3)])
	}
	return s, opts
}

// TestCompileMatchesDecideProperty holds Compile to Decide on random sets:
// every device cell, every identifier the rules can reach and their
// neighbours.
func TestCompileMatchesDecideProperty(t *testing.T) {
	probes := probeRange()
	prop := func(seed int64) bool {
		s, opts := randomCompileCase(rand.New(rand.NewSource(seed)))
		c, err := Compile(s, opts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, subj := range opts.Subjects {
			for _, mode := range opts.Modes {
				mt := c.Node(subj).Table(mode)
				for _, id := range probes {
					for _, d := range []struct {
						act Action
						l   IDLookup
					}{{ActRead, mt.Reads}, {ActWrite, mt.Writes}} {
						if got, want := d.l.Contains(id), s.Decide(subj, mode, d.act, id) == Allow; got != want {
							t.Logf("seed %d: %s/%s %v 0x%X: table=%v decide=%v\n%s", seed, subj, mode, d.act, id, got, want, s)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// probeRange covers every identifier randomCompileCase can reach, plus a
// margin on each side.
func probeRange() []uint32 {
	var out []uint32
	for id := uint32(0); id < 0x60; id++ {
		out = append(out, id)
	}
	for id := uint32(0x7E0); id < 0x860; id++ {
		out = append(out, id)
	}
	return out
}

// TestCompileSharesEqualLookups asserts the sharing rule: within one
// Compiled, two cells hold the same lookup exactly when their approved
// lists are equal (the empty list included).
func TestCompileSharesEqualLookups(t *testing.T) {
	check := func(name string, s *Set, opts CompileOptions) {
		t.Helper()
		c, err := Compile(s, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		type cell struct {
			at  string
			l   IDLookup
			ids []uint32
		}
		var cells []cell
		for _, subj := range c.Subjects() {
			for mode, mt := range c.Node(subj).PerMode {
				cells = append(cells,
					cell{fmt.Sprintf("%s/%s/R", subj, mode), mt.Reads, mt.Reads.IDs()},
					cell{fmt.Sprintf("%s/%s/W", subj, mode), mt.Writes, mt.Writes.IDs()})
			}
		}
		for i, a := range cells {
			for _, b := range cells[i+1:] {
				same := reflect.ValueOf(a.l).Pointer() == reflect.ValueOf(b.l).Pointer()
				if equal := slices.Equal(a.ids, b.ids); same != equal {
					t.Fatalf("%s: %s %v and %s %v: shared=%v, equal lists=%v", name, a.at, a.ids, b.at, b.ids, same, equal)
				}
			}
		}
	}
	for _, kind := range []LookupKind{LookupBitmap, LookupHash} {
		check("testSet/"+kind.String(), testSet(), compileOpts(kind))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		s, opts := randomCompileCase(rng)
		if opts.Lookup == LookupSorted || opts.Lookup == LookupLinear {
			// An empty slice lookup is a nil slice with no identity.
			opts.Lookup = LookupHash
		}
		check(fmt.Sprintf("random %d", i), s, opts)
	}
}
