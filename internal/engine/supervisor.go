package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
)

// This file implements the fault-tolerant sweep supervisor: every cell of a
// vehicle visit — and the visit itself — executes behind a containment
// ladder instead of aborting the fleet on first failure.
//
// The ladder, per cell: a failed attempt (panic, deadline overrun, or an
// injected chaos fault) is quarantined and retried, up to 2*MaxRetries+1
// times, each retry recording a capped virtual backoff; a panic first
// rebuilds the pooled arena. Only a cell that keeps failing through all of
// that is unrecoverable: the vehicle reports a partial result and the
// sweep returns an error alongside the partial fleet report. Per visit: a
// panic escaping cell scope (or an injected crash fault) abandons the
// visit, the worker rebuilds its arena, and the whole vehicle re-runs up to
// MaxRetries times.
//
// Determinism: chaos faults are a pure function of per-vehicle coordinates,
// retries are decided by counters local to the vehicle, and the recorded
// backoff is virtual (never slept) — so the Health ledger, like the payload
// report, is byte-stable across worker counts and pooling modes.

// Supervisor failure classes. ErrCellPanic and ErrVehicleCrash wrap
// recovered panics at cell and visit scope; ErrCellDeadline reports a cell
// whose tail left the virtual clock past the budget; ErrUnrecoverable marks
// a cell that failed through every retry.
var (
	ErrCellPanic     = errors.New("engine: recovered cell panic")
	ErrVehicleCrash  = errors.New("engine: recovered vehicle-visit crash")
	ErrCellDeadline  = errors.New("engine: cell exceeded its virtual-time budget")
	ErrUnrecoverable = errors.New("engine: unrecoverable cell")
)

const (
	defaultMaxRetries = 2
	defaultTimeBudget = time.Minute // virtual; healthy cells finish in simulated milliseconds

	backoffBase = time.Millisecond
	backoffCap  = 8 * time.Millisecond
)

// supervisorCfg is the resolved supervision configuration every worker
// shares.
type supervisorCfg struct {
	plan       *chaos.Plan
	maxRetries int
	timeBudget time.Duration
}

// backoff returns the capped virtual backoff recorded before retry n
// (1-based): base<<(n-1), clamped to backoffCap.
func backoff(n int) time.Duration {
	if n > 4 {
		return backoffCap
	}
	d := backoffBase << uint(n-1)
	if d > backoffCap {
		return backoffCap
	}
	return d
}

// cellExec supervises one scenario group's cells for one vehicle (or, in a
// cell-major run, one prefix bucket of them). Exactly one execution backend
// is set: owner for the pooled arena, hv for the fresh-construction path.
type cellExec struct {
	sup    *supervisorCfg
	health *Health
	sh     *shared
	owner  *arena          // pooled vehicle stack; nil on the fresh path
	hv     *attack.Harness // fresh-path harness, seed applied
	cells  []int           // scenario indices the walk covers (nil: all)

	vehicle, group int
	seed           uint64 // the group seed, re-applied after arena rebuilds
}

// runCell executes one cell through the containment ladder and returns its
// result, or ErrUnrecoverable once the attempt budget is exhausted.
func (e *cellExec) runCell(sc attack.Scenario, sci, ri int, enf attack.Enforcement) (attack.Result, error) {
	maxAttempts := 2*e.sup.maxRetries + 1
	for attempt := 0; ; attempt++ {
		r, err := e.attempt(sc, sci, ri, enf, attempt)
		if err == nil {
			return r, nil
		}
		e.classify(err)
		if rerr := e.refresh(err); rerr != nil {
			return r, rerr
		}
		if attempt >= maxAttempts {
			e.health.Unrecoverable++
			return r, fmt.Errorf("%w: vehicle %d group %d scenario %d regime %s: %v",
				ErrUnrecoverable, e.vehicle, e.group, sci, enf, err)
		}
		e.health.Retries++
		e.health.Backoff += backoff(attempt + 1)
	}
}

// attempt executes one try of one cell, converting panics into ErrCellPanic
// and injecting whatever the chaos plan dictates for this coordinate.
func (e *cellExec) attempt(sc attack.Scenario, sci, ri int, enf attack.Enforcement, attempt int) (r attack.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, p)
		}
	}()
	if k, ok := e.sup.plan.CellFault(e.vehicle, e.group, ri, sci, attempt); ok {
		switch k {
		case chaos.KindPanic:
			panic(&chaos.InjectedPanic{Vehicle: e.vehicle, Group: e.group, Regime: ri, Scenario: sci, Attempt: attempt})
		case chaos.KindDeadline:
			return attack.Result{}, chaos.ErrDeadline
		}
	}
	if e.owner == nil {
		return e.hv.Run(sc, enf)
	}
	if r, err = e.owner.att.Run(sc, enf); err != nil {
		return r, err
	}
	// Virtual-time watchdog (pooled path, where the cell's car is
	// reachable): a healthy cell leaves the clock in simulated
	// milliseconds, so a clock past the budget means a runaway tail.
	if now := e.owner.att.Car().Scheduler().Now(); now > e.sup.timeBudget {
		return r, fmt.Errorf("%w: clock at %s after the cell (budget %s)", ErrCellDeadline, now, e.sup.timeBudget)
	}
	return r, nil
}

// classify books one quarantined failure into the ledger.
func (e *cellExec) classify(err error) {
	e.health.Quarantines++
	switch {
	case errors.Is(err, ErrCellPanic):
		e.health.PanicRecoveries++
	case errors.Is(err, chaos.ErrDeadline), errors.Is(err, ErrCellDeadline):
		e.health.DeadlineOverruns++
	}
}

// refresh prepares the backend for the next attempt: a panic rebuilds the
// pooled attack arena outright — retrying on a stack whose invariants a
// panic may have torn is not containment, it is hope. Every other failure
// retries on the same arena, which Arena.Run resets per cell anyway.
func (e *cellExec) refresh(err error) error {
	if e.owner == nil || !errors.Is(err, ErrCellPanic) {
		return nil
	}
	att, aerr := e.sh.harness.NewArena()
	if aerr != nil {
		return aerr
	}
	att.SetSeed(e.seed)
	e.owner.att = att
	return nil
}

// runGroupCells executes one group's cells (e.cells, or every scenario when
// nil) under supervision and folds them into per-regime aggregates, walking
// scenario-major, regime-minor.
func runGroupCells(e *cellExec, g *ScenarioGroup) ([]attack.RegimeSummary, error) {
	out := make([]attack.RegimeSummary, len(g.Regimes))
	for i, enf := range g.Regimes {
		out[i].Regime = enf
	}
	n := len(g.Scenarios)
	if e.cells != nil {
		n = len(e.cells)
	}
	for k := 0; k < n; k++ {
		sci := k
		if e.cells != nil {
			sci = e.cells[k]
		}
		for ri, enf := range g.Regimes {
			r, err := e.runCell(g.Scenarios[sci], sci, ri, enf)
			if err != nil {
				return out, err
			}
			out[ri].Summary.Add(r)
		}
	}
	return out, nil
}

// superviseVisit runs one vehicle visit through the visit-scope ladder:
// a crash (recovered panic at visit scope, injected or real) rebuilds the
// worker's stack and re-runs the whole vehicle, up to maxRetries times.
// The Health ledger accumulates across visit attempts — a recovered crash's
// earlier quarantines are part of the vehicle's history, not noise.
func superviseVisit(sup *supervisorCfg, visit func(attempt int, h *Health) (VehicleReport, error), rebuild func() error) (VehicleReport, error) {
	var h Health
	var rep VehicleReport
	var err error
	for attempt := 0; ; attempt++ {
		rep, err = visit(attempt, &h)
		if err == nil || !errors.Is(err, ErrVehicleCrash) || attempt >= sup.maxRetries {
			break
		}
		h.CrashRecoveries++
		h.Retries++
		h.Backoff += backoff(attempt + 1)
		if rebuild != nil {
			if rerr := rebuild(); rerr != nil {
				err = rerr
				break
			}
		}
	}
	if err != nil && errors.Is(err, ErrVehicleCrash) {
		h.Unrecoverable++
	}
	rep.Health = h
	return rep, err
}
