package ir

import (
	"repro/internal/policy"
)

// tableBackend re-homes the existing interpreted enforcement form — the
// per-node approved-list tables of Fig. 4 built by policy.Compile — behind
// the Backend interface. It compiles through Policy.ToSet so the artifact is
// produced by the very same policy.Compile code path the pre-backend engine
// ran: zero behaviour change by construction, which is why it is the
// default.
type tableBackend struct{}

func init() { Register(tableBackend{}) }

func (tableBackend) Name() string { return "table" }

func (tableBackend) Compile(p *Policy) (Enforcer, error) {
	c, err := policy.Compile(p.ToSet(), policy.CompileOptions{
		Subjects:   p.Subjects,
		Modes:      p.Modes,
		Lookup:     p.Lookup,
		TableLimit: p.Limit,
	})
	if err != nil {
		return nil, err
	}
	return WrapCompiled(c), nil
}

// tableEnforcer serves decisions from a *policy.Compiled. Every (subject,
// mode) decider is built once, at wrap time, so Node, Resolve and Allow are
// lookups that never allocate.
type tableEnforcer struct {
	compiled *policy.Compiled
	nodes    map[string]*tableNode
}

// WrapCompiled adapts an already-compiled table artifact (the
// policy.Compile output) into an Enforcer without re-lowering. Callers that
// hold a *policy.Compiled — hpe.Install, the attack harness — use it to meet
// Enforcer-shaped APIs.
func WrapCompiled(c *policy.Compiled) Enforcer {
	subs := c.Subjects()
	nodes := make(map[string]*tableNode, len(subs))
	for _, s := range subs {
		nt := c.Node(s)
		n := &tableNode{modes: make(map[policy.Mode]ModeDecider, len(nt.PerMode))}
		for mode, mt := range nt.PerMode {
			n.modes[mode] = &tableMode{reads: mt.Reads, writes: mt.Writes}
		}
		nodes[s] = n
	}
	return &tableEnforcer{compiled: c, nodes: nodes}
}

// Backend implements Enforcer.
func (t *tableEnforcer) Backend() string { return "table" }

// Policy implements Enforcer.
func (t *tableEnforcer) Policy() (string, uint64) { return t.compiled.Name, t.compiled.Version }

// Decide implements Enforcer: a direct walk of the compiled approved lists.
func (t *tableEnforcer) Decide(subject string, object uint32, act policy.Action, ctx Context) Decision {
	if t.Node(subject).Resolve(ctx.Mode).Allow(act, object) {
		return Decision{Effect: policy.Allow}
	}
	return Decision{Effect: policy.Deny}
}

// Node implements Enforcer. Unknown subjects share the deny-all decider
// (the compiled form would allocate a fresh deny-all table per call).
func (t *tableEnforcer) Node(subject string) NodeDecider {
	if n, ok := t.nodes[subject]; ok {
		return n
	}
	return denyAllNode{}
}

type tableNode struct{ modes map[policy.Mode]ModeDecider }

func (n *tableNode) Resolve(mode policy.Mode) ModeDecider {
	if md, ok := n.modes[mode]; ok {
		return md
	}
	return denyAllMode{}
}

// tableMode is one mode's pair of approved lists.
type tableMode struct{ reads, writes policy.IDLookup }

func (m *tableMode) Allow(act policy.Action, id uint32) bool {
	switch act {
	case policy.ActRead:
		return m.reads.Contains(id)
	case policy.ActWrite:
		return m.writes.Contains(id)
	default:
		return false
	}
}
