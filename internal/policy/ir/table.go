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
	return &TableEnforcer{compiled: c, subjects: p.subjectIdx}, nil
}

// TableEnforcer wraps a *policy.Compiled. It is exported so the HPE can
// recognise the table backend and keep its historical atomic-table fast
// path (hpe.Engine swaps whole NodeTable pointers) instead of going through
// the generic decider indirection.
type TableEnforcer struct {
	compiled *policy.Compiled
	subjects map[string]int
}

// WrapCompiled adapts an already-compiled table artifact (the legacy
// policy.Compile output) into an Enforcer without re-lowering. Callers that
// still build *policy.Compiled directly use this to meet Enforcer-shaped APIs.
func WrapCompiled(c *policy.Compiled) *TableEnforcer {
	subs := c.Subjects()
	idx := make(map[string]int, len(subs))
	for i, s := range subs {
		idx[s] = i
	}
	return &TableEnforcer{compiled: c, subjects: idx}
}

// Compiled exposes the underlying table artifact.
func (t *TableEnforcer) Compiled() *policy.Compiled { return t.compiled }

// Backend implements Enforcer.
func (t *TableEnforcer) Backend() string { return "table" }

// Policy implements Enforcer.
func (t *TableEnforcer) Policy() (string, uint64) { return t.compiled.Name, t.compiled.Version }

// Decide implements Enforcer: a direct walk of the compiled approved lists.
func (t *TableEnforcer) Decide(subject string, object uint32, act policy.Action, ctx Context) Decision {
	if t.Node(subject).Resolve(ctx.Mode).Allow(act, object) {
		return Decision{Effect: policy.Allow}
	}
	return Decision{Effect: policy.Deny}
}

// Node implements Enforcer. Known subjects resolve through their compiled
// NodeTable; unknown subjects share the deny-all decider (the compiled form
// would allocate a fresh deny-all table per call).
func (t *TableEnforcer) Node(subject string) NodeDecider {
	if _, ok := t.subjects[subject]; !ok {
		return denyAllNode{}
	}
	return tableNode{t: t.compiled.Node(subject)}
}

type tableNode struct{ t *policy.NodeTable }

func (n tableNode) Resolve(mode policy.Mode) ModeDecider {
	mt, ok := n.t.PerMode[mode]
	if !ok {
		return denyAllMode{}
	}
	return tableMode{mt: mt}
}

type tableMode struct{ mt policy.ModeTable }

func (m tableMode) Allow(act policy.Action, id uint32) bool {
	switch act {
	case policy.ActRead:
		return m.mt.Reads.Contains(id)
	case policy.ActWrite:
		return m.mt.Writes.Contains(id)
	default:
		return false
	}
}
