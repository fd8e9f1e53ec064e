// Package hpe simulates the hardware-based policy engine of the paper's
// Fig. 4: a block sitting between a node's CAN controller and transceiver,
// holding an approved reading list and an approved writing list of message
// identifiers, with a decision block that grants or blocks each frame.
//
// Two properties from §V-B.2 are modelled faithfully:
//
//   - Transparency: the engine implements canbus.InlineFilter and is invisible
//     to node software; nothing in the node's firmware path can mutate it.
//     Table swaps happen only through Install, which the secure policy-update
//     path (policy.Store) drives.
//   - Robustness to firmware compromise: compromising the CAN controller
//     (Controller.CompromiseFilters) bypasses software acceptance filters but
//     leaves the engine's filtering intact, because it is a separate hardware
//     entity.
//
// Because a real HPE is an RTL block, the simulation also carries a cycle
// cost model so benchmarks can report decision latency in hardware terms.
package hpe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/canbus"
	"repro/internal/policy"
	"repro/internal/policy/ir"
)

// ModeSource reports the device's current operating mode. The connected-car
// model implements this; the engine consults it on every decision so a mode
// switch (Normal -> Fail-safe) changes enforcement instantly.
type ModeSource interface {
	// Mode returns the current operating mode.
	Mode() policy.Mode
}

// FixedMode is a ModeSource pinned to one mode, for tests and single-mode
// devices.
type FixedMode policy.Mode

// Mode implements ModeSource.
func (m FixedMode) Mode() policy.Mode { return policy.Mode(m) }

var _ ModeSource = FixedMode("")

// CycleModel prices engine operations in hardware clock cycles.
type CycleModel struct {
	// ClockHz is the engine clock frequency (for latency conversion).
	ClockHz uint64
	// DecodeCycles is the fixed cost of parsing the frame header.
	DecodeCycles uint64
	// LookupCycles is the cost of one approved-list query (1 for a CAM).
	LookupCycles uint64
	// DecisionCycles is the cost of the decision block itself.
	DecisionCycles uint64
}

// DefaultCycleModel approximates a modest FPGA implementation: 100 MHz
// clock, 2-cycle header decode, single-cycle CAM lookup, 1-cycle decision.
func DefaultCycleModel() CycleModel {
	return CycleModel{ClockHz: 100_000_000, DecodeCycles: 2, LookupCycles: 1, DecisionCycles: 1}
}

// PerDecision returns the cycle cost of one grant/block decision.
func (m CycleModel) PerDecision() uint64 {
	return m.DecodeCycles + m.LookupCycles + m.DecisionCycles
}

// LatencyNanos converts a cycle count to nanoseconds at the engine clock.
func (m CycleModel) LatencyNanos(cycles uint64) float64 {
	if m.ClockHz == 0 {
		return 0
	}
	return float64(cycles) / float64(m.ClockHz) * 1e9
}

// Stats counts engine activity. All counters are monotonically increasing.
type Stats struct {
	// Decisions counts every consultation of the decision block.
	Decisions uint64
	// ReadsGranted / ReadsBlocked split inbound outcomes.
	ReadsGranted, ReadsBlocked uint64
	// WritesGranted / WritesBlocked split outbound outcomes.
	WritesGranted, WritesBlocked uint64
	// Cycles accumulates the modelled hardware cycle cost.
	Cycles uint64
	// Installs counts policy table swaps.
	Installs uint64
}

// Engine is one node's policy engine instance.
//
// By default an Engine is safe for concurrent use: the table swap is atomic
// and the statistics are mutex-protected. A fleet worker that confines an
// engine to one goroutine can call SetSingleOwner(true) to drop the mutex
// from the decision hot path (the same single-owner contract canbus.Bus
// carries).
type Engine struct {
	subject string
	modes   ModeSource
	cycles  CycleModel
	// perDecision caches cycles.PerDecision(): the sum sits on the
	// per-frame decision path of every node.
	perDecision uint64
	single      bool // single-owner mode: skip the stats mutex

	table  atomic.Pointer[policy.NodeTable]
	source *policy.Compiled // the compiled policy the table came from

	// gen holds the generic install for non-table policy backends (expr,
	// closure): the enforcer and the node's resolved decider. Exactly one of
	// table/gen is non-nil after an install; the table backend keeps its
	// historical atomic-NodeTable fast path and never touches gen.
	gen     atomic.Pointer[genInstall]
	backend string // active backend name ("" before any install)

	// Resolved mode-table cache, maintained only in single-owner mode: it
	// skips the per-decision map lookup NodeTable.Table performs. The
	// concurrent default path must not touch it (Install may race Decide).
	cacheTable *policy.NodeTable
	cacheMode  policy.Mode
	cacheMT    policy.ModeTable

	// The same cache for the generic path: one ModeDecider resolution per
	// (install, mode) change instead of per decision.
	cacheGen   *genInstall
	cacheGMode policy.Mode
	cacheMD    ir.ModeDecider

	mu      sync.Mutex
	stats   Stats
	auditor *Auditor
}

// genInstall is one generic (non-table) backend install: swapped atomically
// as a unit, like the NodeTable pointer on the table path.
type genInstall struct {
	enf  ir.Enforcer
	node ir.NodeDecider
}

var _ canbus.InlineFilter = (*Engine)(nil)

// New creates an engine for the named node. Until Install is called the
// engine fails closed: every frame is blocked, matching the paper's
// least-privilege stance (§V-B).
func New(subject string, modes ModeSource, cycles CycleModel) *Engine {
	if modes == nil {
		panic("hpe: nil ModeSource")
	}
	return &Engine{subject: subject, modes: modes, cycles: cycles, perDecision: cycles.PerDecision()}
}

// Subject returns the node name this engine protects.
func (e *Engine) Subject() string { return e.subject }

// SetSingleOwner switches the engine into (or out of) single-owner mode: the
// caller asserts every Decide/Stats/Install/Reset happens on one goroutine,
// and the engine stops taking its internal mutex. Must itself be called by
// that owner, before any concurrent use.
func (e *Engine) SetSingleOwner(on bool) { e.single = on }

// lock and unlock guard the stats; no-ops in single-owner mode.
func (e *Engine) lock() {
	if !e.single {
		e.mu.Lock()
	}
}

func (e *Engine) unlock() {
	if !e.single {
		e.mu.Unlock()
	}
}

// Install loads the node's table from a compiled policy. It is the only
// mutation path, used by the secure update mechanism; the swap is atomic
// with respect to concurrent decisions.
func (e *Engine) Install(c *policy.Compiled) error {
	if c == nil {
		return fmt.Errorf("hpe: nil compiled policy")
	}
	e.gen.Store(nil)
	e.table.Store(c.Node(e.subject))
	e.lock()
	e.source = c
	e.backend = ir.DefaultBackend
	e.stats.Installs++
	e.unlock()
	return nil
}

// InstallEnforcer loads the node's decision logic from a compiled enforcer.
// The table backend routes through the historical Install path (atomic
// NodeTable swap, untouched hot path); every other backend installs its
// NodeDecider on the generic path. Like Install, the swap is atomic with
// respect to concurrent decisions.
func (e *Engine) InstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	if te, ok := enf.(*ir.TableEnforcer); ok {
		return e.Install(te.Compiled())
	}
	e.table.Store(nil)
	e.gen.Store(&genInstall{enf: enf, node: enf.Node(e.subject)})
	e.lock()
	e.source = nil
	e.backend = enf.Backend()
	e.stats.Installs++
	e.unlock()
	return nil
}

// ReinstallEnforcer is InstallEnforcer specialised for re-provisioning a
// pooled engine, mirroring Reinstall: when the enforcer is the one already
// installed, the resolved decider is reused.
func (e *Engine) ReinstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	if te, ok := enf.(*ir.TableEnforcer); ok {
		return e.Reinstall(te.Compiled())
	}
	g := e.gen.Load()
	same := g != nil && g.enf == enf
	if same {
		e.lock()
		e.stats.Installs++
		e.unlock()
		return nil
	}
	return e.InstallEnforcer(enf)
}

// Reinstall is Install specialised for re-provisioning a pooled engine: when
// the compiled policy is the one already installed, the resolved lookup
// tables are reused instead of being re-derived (Compiled.Node allocates a
// fresh deny-all table for unknown subjects on every call, and even the
// known-subject path pays a map lookup). A different compiled policy falls
// back to a full Install.
func (e *Engine) Reinstall(c *policy.Compiled) error {
	if c == nil {
		return fmt.Errorf("hpe: nil compiled policy")
	}
	e.lock()
	same := e.source == c && e.table.Load() != nil
	if same {
		e.stats.Installs++
	}
	e.unlock()
	if same {
		return nil
	}
	return e.Install(c)
}

// Installed reports whether decision logic has been loaded (a policy table
// or a generic enforcer).
func (e *Engine) Installed() bool { return e.table.Load() != nil || e.gen.Load() != nil }

// Backend returns the name of the active policy backend, or "" before any
// install.
func (e *Engine) Backend() string {
	e.lock()
	defer e.unlock()
	return e.backend
}

// Enforcer returns the generic enforcer installed via InstallEnforcer, or
// nil when the engine runs the table path.
func (e *Engine) Enforcer() ir.Enforcer {
	if g := e.gen.Load(); g != nil {
		return g.enf
	}
	return nil
}

// Reset zeroes the engine's counters, returning it to the statistical state
// of a freshly constructed engine. The installed table, mode source, cycle
// model and attached auditor are kept: a reset engine decides exactly as it
// did before.
func (e *Engine) Reset() {
	e.lock()
	e.stats = Stats{}
	e.unlock()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.lock()
	defer e.unlock()
	return e.stats
}

// CycleModel returns the engine's cycle cost model.
func (e *Engine) CycleModel() CycleModel { return e.cycles }

// Decide implements canbus.InlineFilter: it consults the approved reading
// list for inbound frames and the approved writing list for outbound
// frames, granting only identifiers present for the current mode.
func (e *Engine) Decide(dir canbus.Direction, f canbus.Frame) canbus.Verdict {
	verdict := canbus.Block
	t := e.table.Load()
	if t != nil {
		var mt policy.ModeTable
		mode := e.modes.Mode()
		if e.single && t == e.cacheTable && mode == e.cacheMode {
			mt = e.cacheMT
		} else {
			mt = t.Table(mode)
			if e.single {
				e.cacheTable, e.cacheMode, e.cacheMT = t, mode, mt
			}
		}
		switch dir {
		case canbus.Read:
			if mt.Reads != nil && mt.Reads.Contains(f.ID) {
				verdict = canbus.Grant
			}
		case canbus.Write:
			if mt.Writes != nil && mt.Writes.Contains(f.ID) {
				verdict = canbus.Grant
			}
		}
	} else if g := e.gen.Load(); g != nil {
		// Generic backend path, mirroring the table path's single-owner
		// resolved-decider cache: one Resolve per (install, mode) change.
		var md ir.ModeDecider
		mode := e.modes.Mode()
		if e.single && g == e.cacheGen && mode == e.cacheGMode {
			md = e.cacheMD
		} else {
			md = g.node.Resolve(mode)
			if e.single {
				e.cacheGen, e.cacheGMode, e.cacheMD = g, mode, md
			}
		}
		switch dir {
		case canbus.Read:
			if md.Allow(policy.ActRead, f.ID) {
				verdict = canbus.Grant
			}
		case canbus.Write:
			if md.Allow(policy.ActWrite, f.ID) {
				verdict = canbus.Grant
			}
		}
	}

	// Lock branches inlined by hand: the helper calls showed up in fleet
	// profiles at one call per frame per node.
	if !e.single {
		e.mu.Lock()
	}
	e.stats.Decisions++
	e.stats.Cycles += e.perDecision
	switch {
	case dir == canbus.Read && verdict == canbus.Grant:
		e.stats.ReadsGranted++
	case dir == canbus.Read:
		e.stats.ReadsBlocked++
	case dir == canbus.Write && verdict == canbus.Grant:
		e.stats.WritesGranted++
	default:
		e.stats.WritesBlocked++
	}
	auditor := e.auditor
	if !e.single {
		e.mu.Unlock()
	}
	if verdict == canbus.Block && auditor != nil {
		auditor.record(e.subject, dir, e.modes.Mode(), f)
	}
	return verdict
}

// Deploy attaches engines to every listed node of a bus and installs the
// compiled policy into each. It returns the engines keyed by node name.
func Deploy(bus *canbus.Bus, compiled *policy.Compiled, modes ModeSource, cycles CycleModel, nodeNames ...string) (map[string]*Engine, error) {
	engines := make(map[string]*Engine, len(nodeNames))
	for _, name := range nodeNames {
		node, ok := bus.Node(name)
		if !ok {
			return nil, fmt.Errorf("hpe: node %q not attached to bus", name)
		}
		eng := New(name, modes, cycles)
		if err := eng.Install(compiled); err != nil {
			return nil, err
		}
		node.SetInlineFilter(eng)
		engines[name] = eng
	}
	return engines, nil
}

// DeployEnforcer is Deploy for a compiled enforcer: same attachment, with
// the backend-appropriate install path per engine.
func DeployEnforcer(bus *canbus.Bus, enf ir.Enforcer, modes ModeSource, cycles CycleModel, nodeNames ...string) (map[string]*Engine, error) {
	engines := make(map[string]*Engine, len(nodeNames))
	for _, name := range nodeNames {
		node, ok := bus.Node(name)
		if !ok {
			return nil, fmt.Errorf("hpe: node %q not attached to bus", name)
		}
		eng := New(name, modes, cycles)
		if err := eng.InstallEnforcer(enf); err != nil {
			return nil, err
		}
		node.SetInlineFilter(eng)
		engines[name] = eng
	}
	return engines, nil
}
