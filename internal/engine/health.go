package engine

import (
	"fmt"
	"time"
)

// Health is the sweep supervisor's containment ledger: every quarantine,
// retry and recovery event of a run, folded per vehicle and then
// fleet-wide. The ledger is deterministic — faults are injected (or occur)
// as a pure function of per-vehicle coordinates and the whole retry history
// of a vehicle is independent of which worker ran it — so the rendered
// section is byte-stable across worker counts and pooling modes, which is
// what lets CI diff the Health output of a seeded chaos run.
type Health struct {
	// Quarantines counts failed cell attempts converted into quarantine
	// records (crash recoveries, which are vehicle-scope, are not counted).
	Quarantines int
	// PanicRecoveries counts cell panics recovered by the supervisor.
	PanicRecoveries int
	// DeadlineOverruns counts cells that exceeded the virtual-time budget
	// (or had an overrun injected).
	DeadlineOverruns int
	// CrashRecoveries counts whole-vehicle visits recovered after a
	// simulated worker/shard crash.
	CrashRecoveries int
	// Retries counts re-attempts the supervisor scheduled (cell and vehicle
	// scope combined).
	Retries int
	// Backoff is the total virtual backoff the capped retry schedule
	// accumulated. Recorded, never slept: a deterministic sweep cannot wait
	// on wall clocks, but the schedule a production shard supervisor would
	// sleep is part of the evidence.
	Backoff time.Duration
	// Unrecoverable counts cells (or vehicles) that kept failing through
	// every retry — the only failures that still surface as a sweep error.
	Unrecoverable int
}

// Merge folds another ledger into h (commutative integer adds, so merge
// order is invisible — the same property the attack summaries rely on).
func (h *Health) Merge(o Health) {
	h.Quarantines += o.Quarantines
	h.PanicRecoveries += o.PanicRecoveries
	h.DeadlineOverruns += o.DeadlineOverruns
	h.CrashRecoveries += o.CrashRecoveries
	h.Retries += o.Retries
	h.Backoff += o.Backoff
	h.Unrecoverable += o.Unrecoverable
}

// IsZero reports whether nothing was contained — the no-fault fast path,
// which renders no Health section unless the supervisor was explicitly
// armed.
func (h Health) IsZero() bool { return h == Health{} }

// String renders the ledger as one deterministic line.
func (h Health) String() string {
	return fmt.Sprintf("quarantines=%d (panic=%d deadline=%d) crashes=%d retries=%d backoff=%s unrecoverable=%d",
		h.Quarantines, h.PanicRecoveries, h.DeadlineOverruns,
		h.CrashRecoveries, h.Retries, h.Backoff, h.Unrecoverable)
}
