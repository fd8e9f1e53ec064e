// Package hpe simulates the hardware-based policy engine of the paper's
// Fig. 4: a block sitting between a node's CAN controller and transceiver,
// holding an approved reading list and an approved writing list of message
// identifiers, with a decision block that grants or blocks each frame.
//
// Two properties from §V-B.2 are modelled faithfully:
//
//   - Transparency: the engine implements canbus.InlineFilter and is invisible
//     to node software; nothing in the node's firmware path can mutate it.
//     Policy swaps happen only through InstallEnforcer (Install wraps a
//     compiled table into it), which the secure policy-update path
//     (policy.Store) drives.
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
// By default an Engine is safe for concurrent use: the policy swap is atomic
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

	// installed is the decision logic, whatever the policy backend: the
	// enforcer and this node's resolved decider, swapped as one pointer so
	// a concurrent Decide sees either the old policy or the new one.
	installed atomic.Pointer[install]

	// Resolved-decider cache, maintained only in single-owner mode: one
	// Resolve per (install, mode) change instead of per decision. The
	// concurrent default path must not touch it (Install may race Decide).
	cacheIns  *install
	cacheMode policy.Mode
	cacheMD   ir.ModeDecider

	mu      sync.Mutex
	stats   Stats
	auditor *Auditor
}

// install is one installed policy: the enforcer and the engine's node
// decider drawn from it.
type install struct {
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

// Install loads the node's table from a compiled policy: InstallEnforcer on
// the table backend's wrapping of c.
func (e *Engine) Install(c *policy.Compiled) error {
	if c == nil {
		return fmt.Errorf("hpe: nil compiled policy")
	}
	return e.InstallEnforcer(ir.WrapCompiled(c))
}

// InstallEnforcer loads the node's decision logic from a compiled enforcer
// of any backend. It is the only mutation path, used by the secure update
// mechanism; the swap is atomic with respect to concurrent decisions.
func (e *Engine) InstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	e.installed.Store(&install{enf: enf, node: enf.Node(e.subject)})
	e.countInstall()
	return nil
}

// ReinstallEnforcer is InstallEnforcer specialised for re-provisioning a
// pooled engine: when the enforcer is the one already installed, the
// resolved decider is reused and only the install is counted.
func (e *Engine) ReinstallEnforcer(enf ir.Enforcer) error {
	if enf == nil {
		return fmt.Errorf("hpe: nil enforcer")
	}
	if in := e.installed.Load(); in != nil && in.enf == enf {
		e.countInstall()
		return nil
	}
	return e.InstallEnforcer(enf)
}

func (e *Engine) countInstall() {
	e.lock()
	e.stats.Installs++
	e.unlock()
}

// Installed reports whether decision logic has been loaded.
func (e *Engine) Installed() bool { return e.installed.Load() != nil }

// Backend returns the name of the active policy backend, or "" before any
// install.
func (e *Engine) Backend() string {
	if in := e.installed.Load(); in != nil {
		return in.enf.Backend()
	}
	return ""
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
	if in := e.installed.Load(); in != nil {
		var md ir.ModeDecider
		mode := e.modes.Mode()
		if e.single && in == e.cacheIns && mode == e.cacheMode {
			md = e.cacheMD
		} else {
			md = in.node.Resolve(mode)
			if e.single {
				e.cacheIns, e.cacheMode, e.cacheMD = in, mode, md
			}
		}
		var act policy.Action // zero for an unknown direction: denied
		switch dir {
		case canbus.Read:
			act = policy.ActRead
		case canbus.Write:
			act = policy.ActWrite
		}
		if md.Allow(act, f.ID) {
			verdict = canbus.Grant
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
// compiled policy into each: DeployEnforcer on the table backend's wrapping
// of compiled. It returns the engines keyed by node name.
func Deploy(bus *canbus.Bus, compiled *policy.Compiled, modes ModeSource, cycles CycleModel, nodeNames ...string) (map[string]*Engine, error) {
	if compiled == nil {
		return nil, fmt.Errorf("hpe: nil compiled policy")
	}
	return DeployEnforcer(bus, ir.WrapCompiled(compiled), modes, cycles, nodeNames...)
}

// DeployEnforcer attaches engines to every listed node of a bus and installs
// the compiled enforcer into each. It returns the engines keyed by node
// name.
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
