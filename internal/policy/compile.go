package policy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// TableLimit caps the number of identifiers expanded into one hardware
// table, mirroring the bounded CAM capacity of a real policy engine.
const TableLimit = 4096

// MaxStandardID is the largest 11-bit CAN identifier the bitmap lookup
// covers directly (canbus.MaxStandardID, restated to keep policy free of a
// canbus dependency).
const MaxStandardID = 0x7FF

// LookupKind selects the data structure backing a compiled identifier
// table. The choice is an ablation axis in the benchmarks: a real HPE is a
// CAM (constant time), software implementations pick among these.
type LookupKind uint8

// Lookup kinds.
const (
	// LookupHash uses a hash set (Go map).
	LookupHash LookupKind = iota + 1
	// LookupSorted uses a sorted slice with binary search.
	LookupSorted
	// LookupLinear uses an unsorted slice with linear scan.
	LookupLinear
	// LookupBitmap uses a 2048-bit direct-mapped bitmap over the standard
	// 11-bit identifier space — the closest software analogue of the CAM a
	// real policy engine ships, and the default when every identifier fits.
	// Tables containing extended identifiers fall back to LookupHash.
	LookupBitmap
)

// String returns the lookup kind name.
func (k LookupKind) String() string {
	switch k {
	case LookupHash:
		return "hash"
	case LookupSorted:
		return "sorted"
	case LookupLinear:
		return "linear"
	case LookupBitmap:
		return "bitmap"
	default:
		return "invalid"
	}
}

// IDLookup answers membership queries over a fixed identifier set.
type IDLookup interface {
	// Contains reports whether id is in the set.
	Contains(id uint32) bool
	// Len returns the number of identifiers stored.
	Len() int
	// IDs returns the stored identifiers in ascending order.
	IDs() []uint32
}

type hashLookup map[uint32]struct{}

func (h hashLookup) Contains(id uint32) bool { _, ok := h[id]; return ok }
func (h hashLookup) Len() int                { return len(h) }
func (h hashLookup) IDs() []uint32 {
	out := make([]uint32, 0, len(h))
	for id := range h {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type sortedLookup []uint32

func (s sortedLookup) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}
func (s sortedLookup) Len() int      { return len(s) }
func (s sortedLookup) IDs() []uint32 { return append([]uint32(nil), s...) }

// bitmapLookup covers the standard 11-bit identifier space with one bit per
// identifier: a Contains is two shifts and a mask, no hashing.
type bitmapLookup struct {
	bits [(MaxStandardID + 1) / 64]uint64
	n    int
}

func (b *bitmapLookup) Contains(id uint32) bool {
	if id > MaxStandardID {
		return false
	}
	return b.bits[id>>6]&(1<<(id&63)) != 0
}
func (b *bitmapLookup) Len() int { return b.n }
func (b *bitmapLookup) IDs() []uint32 {
	out := make([]uint32, 0, b.n)
	for id := uint32(0); id <= MaxStandardID; id++ {
		if b.bits[id>>6]&(1<<(id&63)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

type linearLookup []uint32

func (l linearLookup) Contains(id uint32) bool {
	for _, v := range l {
		if v == id {
			return true
		}
	}
	return false
}
func (l linearLookup) Len() int { return len(l) }
func (l linearLookup) IDs() []uint32 {
	out := append([]uint32(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewIDLookup builds a lookup of the requested kind over ids.
func NewIDLookup(kind LookupKind, ids []uint32) (IDLookup, error) {
	switch kind {
	case LookupBitmap:
		for _, id := range ids {
			if id > MaxStandardID {
				// Extended identifiers exceed the direct-mapped range.
				return NewIDLookup(LookupHash, ids)
			}
		}
		b := &bitmapLookup{}
		for _, id := range ids {
			if b.bits[id>>6]&(1<<(id&63)) == 0 {
				b.bits[id>>6] |= 1 << (id & 63)
				b.n++
			}
		}
		return b, nil
	case LookupHash:
		h := make(hashLookup, len(ids))
		for _, id := range ids {
			h[id] = struct{}{}
		}
		return h, nil
	case LookupSorted:
		s := append(sortedLookup(nil), ids...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s, nil
	case LookupLinear:
		return append(linearLookup(nil), ids...), nil
	default:
		return nil, fmt.Errorf("policy: unknown lookup kind %d", kind)
	}
}

// ModeTable is the pair of approved-identifier lists of Fig. 4 for one
// operating mode: the approved reading list and the approved writing list.
type ModeTable struct {
	// Reads is the approved reading list.
	Reads IDLookup
	// Writes is the approved writing list.
	Writes IDLookup
}

// NodeTable holds a node's compiled tables for every operating mode.
type NodeTable struct {
	// Subject is the node the table belongs to.
	Subject string
	// PerMode maps each operating mode to its approved lists.
	PerMode map[Mode]ModeTable
}

// Table reports the mode table for m, falling back to an empty (deny-all)
// table when the mode is unknown.
func (t *NodeTable) Table(m Mode) ModeTable {
	if mt, ok := t.PerMode[m]; ok {
		return mt
	}
	return ModeTable{Reads: sortedLookup(nil), Writes: sortedLookup(nil)}
}

// Compiled is the output of compiling a Set for a concrete device: one
// NodeTable per subject, for each declared mode. It is immutable after
// compilation; the HPE swaps whole Compiled values on policy update.
type Compiled struct {
	// Name and Version are carried over from the source Set.
	Name    string
	Version uint64
	// Modes lists the operating modes the tables cover.
	Modes []Mode
	nodes map[string]*NodeTable
}

// Node returns the compiled table for a subject. Unknown subjects get a
// deny-all table, preserving closed-world semantics.
func (c *Compiled) Node(subject string) *NodeTable {
	if t, ok := c.nodes[subject]; ok {
		return t
	}
	return &NodeTable{Subject: subject, PerMode: map[Mode]ModeTable{}}
}

// Subjects returns the sorted subjects with compiled tables.
func (c *Compiled) Subjects() []string {
	out := make([]string, 0, len(c.nodes))
	for s := range c.nodes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// CompileOptions parameterises compilation.
type CompileOptions struct {
	// Subjects lists every node of the device, so wildcard rules expand and
	// every node receives a table. Required.
	Subjects []string
	// Modes lists every operating mode of the device. Required.
	Modes []Mode
	// Lookup selects the table data structure; LookupBitmap if zero
	// (falling back per table to LookupHash for extended identifiers).
	Lookup LookupKind
	// TableLimit overrides the per-table identifier cap; TableLimit if zero.
	TableLimit int
	// Backend names the enforcement backend to compile for ("table",
	// "expr", "closure"); empty selects the default. Compile itself always
	// produces the interpreted table form — the field is consumed by
	// ir.Build, which dispatches to the registered backend (policy cannot
	// import ir without a cycle).
	Backend string
}

// Compile expands a rule set into per-node, per-mode approved reading and
// writing lists — the exact artifact loaded into the Fig. 4 policy engine.
//
// The identifier universe is every identifier any rule mentions. Each rule
// is painted once into allow and deny bitsets over that universe, one pair
// per (subject, mode, direction) cell; a cell's approved list is allow &^
// deny, which is Decide's deny-overrides rule with default deny, so the
// compiled tables and direct Set evaluation agree everywhere (a property the
// tests assert). Cells with equal approved lists share one immutable lookup.
func Compile(set *Set, opts CompileOptions) (*Compiled, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Subjects) == 0 {
		return nil, fmt.Errorf("policy: compile requires the device's subject list")
	}
	if len(opts.Modes) == 0 {
		return nil, fmt.Errorf("policy: compile requires the device's mode list")
	}
	kind := opts.Lookup
	if kind == 0 {
		kind = LookupBitmap
	}
	limit := opts.TableLimit
	if limit == 0 {
		limit = TableLimit
	}

	// Collect the universe of identifiers any rule mentions.
	var universe IDSet
	for _, r := range set.Rules {
		universe = append(universe, r.IDs...)
	}
	ids, err := universe.Enumerate(limit)
	if err != nil {
		return nil, err
	}
	g := paint(set, opts.Subjects, opts.Modes, ids)

	out := &Compiled{
		Name:    set.Name,
		Version: set.Version,
		Modes:   append([]Mode(nil), opts.Modes...),
		nodes:   make(map[string]*NodeTable, len(opts.Subjects)),
	}
	// shared maps a cell's approved bitset, as bytes, to its lookup.
	shared := map[string]IDLookup{}
	var key []byte
	lookup := func(cell []uint64) (IDLookup, error) {
		key = key[:0]
		for _, w := range cell {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		if l, ok := shared[string(key)]; ok {
			return l, nil
		}
		l, err := NewIDLookup(kind, g.members(cell))
		if err != nil {
			return nil, err
		}
		shared[string(key)] = l
		return l, nil
	}
	for si, subj := range opts.Subjects {
		nt := &NodeTable{Subject: subj, PerMode: make(map[Mode]ModeTable, len(opts.Modes))}
		for mi, mode := range opts.Modes {
			rl, err := lookup(g.cell(si, mi, 0))
			if err != nil {
				return nil, err
			}
			wl, err := lookup(g.cell(si, mi, 1))
			if err != nil {
				return nil, err
			}
			nt.PerMode[mode] = ModeTable{Reads: rl, Writes: wl}
		}
		out.nodes[subj] = nt
	}
	return out, nil
}

// directions are the two single-direction actions, in grid order.
var directions = [2]Action{ActRead, ActWrite}

// grid holds a set's approved accesses over a device model: one bitset per
// (subject, mode, direction) cell, bit i standing for ids[i].
type grid struct {
	ids   []uint32
	modes int
	words int      // uint64 words per cell
	bits  []uint64 // cells in subject, mode, direction order
}

// paint evaluates set on every cell of subjects × modes × directions over
// the sorted identifier universe ids, in one pass over the rules. A "*"
// rule covers every subject, an empty mode set every mode, ActReadWrite
// both directions; deny bits then clear allow bits. Every identifier a rule
// covers must be in ids.
func paint(set *Set, subjects []string, modes []Mode, ids []uint32) grid {
	g := grid{ids: ids, modes: len(modes), words: (len(ids) + 63) / 64}
	n := len(subjects) * len(modes) * len(directions) * g.words
	allow, deny := make([]uint64, n), make([]uint64, n)
	var spans [][2]int
	for _, r := range set.Rules {
		spans = spans[:0]
		for _, rg := range r.IDs {
			lo := sort.Search(len(ids), func(i int) bool { return ids[i] >= rg.Lo })
			hi := sort.Search(len(ids), func(i int) bool { return ids[i] > rg.Hi })
			spans = append(spans, [2]int{lo, hi})
		}
		dst := allow
		if r.Effect == Deny {
			dst = deny
		}
		for si, subj := range subjects {
			if r.Subject != SubjectAll && r.Subject != subj {
				continue
			}
			for mi, mode := range modes {
				if !r.Modes.Contains(mode) {
					continue
				}
				for dir, act := range directions {
					if !r.Action.Has(act) {
						continue
					}
					c := g.offset(si, mi, dir)
					for _, sp := range spans {
						setRange(dst[c:c+g.words], sp[0], sp[1])
					}
				}
			}
		}
	}
	for i := range allow {
		allow[i] &^= deny[i]
	}
	g.bits = allow
	return g
}

func (g grid) offset(si, mi, dir int) int {
	return ((si*g.modes+mi)*len(directions) + dir) * g.words
}

// cell returns the approved bitset of one cell.
func (g grid) cell(si, mi, dir int) []uint64 {
	c := g.offset(si, mi, dir)
	return g.bits[c : c+g.words]
}

// members lists the identifiers whose bits are set, ascending.
func (g grid) members(cell []uint64) []uint32 {
	var out []uint32
	for wi, w := range cell {
		for ; w != 0; w &= w - 1 {
			out = append(out, g.ids[wi*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// setRange sets bits [lo, hi) of b.
func setRange(b []uint64, lo, hi int) {
	for lo < hi {
		w, off := lo/64, uint(lo%64)
		n := min(hi-lo, 64-int(off))
		mask := ^uint64(0)
		if n < 64 {
			mask = (1<<uint(n) - 1) << off
		}
		b[w] |= mask
		lo += n
	}
}
