package policy

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// This file implements policy diffing, the audit companion of the update
// mechanism: before distributing a new version the OEM (and after receiving
// it, an auditor) can see exactly which accesses a bundle grants or
// revokes. The diff is computed over *semantics* (per subject, mode,
// direction and identifier), not rule text, so rewriting rules without
// changing behaviour diffs as empty.

// Access identifies one grantable capability.
type Access struct {
	// Subject is the node holding the capability.
	Subject string
	// Mode is the operating mode it applies in.
	Mode Mode
	// Action is the direction (ActRead or ActWrite).
	Action Action
	// ID is the message identifier.
	ID uint32
}

// String renders "subject mode R 0xID".
func (a Access) String() string {
	return fmt.Sprintf("%s %s %s 0x%03X", a.Subject, a.Mode, a.Action, a.ID)
}

// Diff is the semantic difference between two policy sets.
type Diff struct {
	// Granted lists accesses allowed by the new set but not the old.
	Granted []Access
	// Revoked lists accesses allowed by the old set but not the new.
	Revoked []Access
}

// Empty reports whether the two sets are semantically identical over the
// compared universe.
func (d Diff) Empty() bool { return len(d.Granted) == 0 && len(d.Revoked) == 0 }

// String renders the diff in +/- notation, sorted.
func (d Diff) String() string {
	if d.Empty() {
		return "(no semantic changes)\n"
	}
	var b strings.Builder
	for _, a := range d.Revoked {
		fmt.Fprintf(&b, "- %s\n", a)
	}
	for _, a := range d.Granted {
		fmt.Fprintf(&b, "+ %s\n", a)
	}
	return b.String()
}

// DiffOptions bound the comparison universe.
type DiffOptions struct {
	// Subjects to compare; union of both sets' subjects if empty.
	Subjects []string
	// Modes to compare; union of both sets' modes plus the universal mode
	// probe if empty.
	Modes []Mode
	// Limit caps the identifier universe (TableLimit if zero).
	Limit int
}

// DiffSets computes the semantic difference between old and new over every
// identifier either set mentions. Both sets are painted over the same
// subjects, modes and identifiers (see Compile), and the two grids are
// compared cell by cell in subject, mode, direction, identifier order.
func DiffSets(oldSet, newSet *Set, opts DiffOptions) (Diff, error) {
	if err := oldSet.Validate(); err != nil {
		return Diff{}, fmt.Errorf("policy: diff old set: %w", err)
	}
	if err := newSet.Validate(); err != nil {
		return Diff{}, fmt.Errorf("policy: diff new set: %w", err)
	}
	subjects := opts.Subjects
	if len(subjects) == 0 {
		seen := map[string]bool{}
		for _, s := range append(oldSet.Subjects(), newSet.Subjects()...) {
			seen[s] = true
		}
		for s := range seen {
			subjects = append(subjects, s)
		}
		sort.Strings(subjects)
	}
	modes := opts.Modes
	if len(modes) == 0 {
		seen := map[Mode]bool{}
		for _, m := range append(oldSet.Modes(), newSet.Modes()...) {
			seen[m] = true
		}
		for m := range seen {
			modes = append(modes, m)
		}
		sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
		if len(modes) == 0 {
			modes = []Mode{"default"}
		}
	}
	limit := opts.Limit
	if limit == 0 {
		limit = TableLimit
	}
	var universe IDSet
	for _, r := range oldSet.Rules {
		universe = append(universe, r.IDs...)
	}
	for _, r := range newSet.Rules {
		universe = append(universe, r.IDs...)
	}
	ids, err := universe.Enumerate(limit)
	if err != nil {
		return Diff{}, err
	}

	was := paint(oldSet, subjects, modes, ids)
	is := paint(newSet, subjects, modes, ids)
	var d Diff
	for si, subj := range subjects {
		for mi, mode := range modes {
			for dir, act := range directions {
				before, after := was.cell(si, mi, dir), is.cell(si, mi, dir)
				for wi := range before {
					for w := before[wi] ^ after[wi]; w != 0; w &= w - 1 {
						bit := bits.TrailingZeros64(w)
						a := Access{subj, mode, act, ids[wi*64+bit]}
						if after[wi]&(1<<bit) != 0 {
							d.Granted = append(d.Granted, a)
						} else {
							d.Revoked = append(d.Revoked, a)
						}
					}
				}
			}
		}
	}
	return d, nil
}
