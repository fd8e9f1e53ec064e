package engine

import (
	"sync"

	"repro/internal/attack"
)

// MergeFold is the incremental form of Merge: vehicle reports are folded
// into the fleet aggregates one at a time, in arrival order, so a
// streaming consumer (the shard driver decoding child pipes) never holds
// more than the vehicles it has chosen to retain. Merge itself is this
// fold applied to a slice — same statement order per vehicle, same float
// summation order — so a stream folded in index order finishes
// byte-identical to the batch merge of the same vehicles.
//
// Vehicles whose Groups share one backing array — every vehicle of a
// cell-major run, and every vehicle a wire reader decodes after one block
// frame — carry the same block, so consecutive ones are folded as one run:
// the block's summaries scaled by the run length, exactly the per-vehicle
// Merge since every counter is an integer. Bus counters, Health and the
// utilisation sum still fold vehicle by vehicle, in arrival order.
//
// Not safe for concurrent use: the shard driver serialises Adds behind
// its in-range-order merge loop, exactly as the batch fold serialises its
// slice walk.
type MergeFold struct {
	cfg     Config
	fr      *FleetReport
	utilSum float64
	// run is the block the last runLen folded vehicles share; its group
	// aggregates are not yet in fr.
	run    [][]attack.RegimeSummary
	runLen int
}

// NewMergeFold starts an incremental fleet merge. cfg must describe the
// whole fleet (total Fleet, the unsharded Workers value, zero
// IndexOffset); the same defaults Run applies are applied here so the
// report header matches.
func NewMergeFold(cfg Config) (*MergeFold, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	m := newMergeFold(cfg)
	// The fold retains every vehicle of the fleet: size the slice once
	// instead of growing it through ~log(Fleet) copies.
	m.fr.Vehicles = make([]VehicleReport, 0, cfg.Fleet)
	return m, nil
}

// newMergeFold builds the fold over an already-defaulted config.
func newMergeFold(cfg Config) *MergeFold {
	fr := &FleetReport{
		Fleet:    cfg.Fleet,
		Workers:  cfg.Workers,
		RootSeed: cfg.Groups[0].RootSeed,
		Groups:   make([]GroupReport, len(cfg.Groups)),
	}
	for gi := range cfg.Groups {
		g := &cfg.Groups[gi]
		fr.Groups[gi].Name = g.Name
		fr.Groups[gi].RootSeed = g.RootSeed
		fr.Groups[gi].Regimes = make([]attack.RegimeSummary, len(g.Regimes))
		for ri, enf := range g.Regimes {
			fr.Groups[gi].Regimes[ri].Regime = enf
		}
	}
	fr.HealthEnabled = cfg.Chaos.Active()
	return &MergeFold{cfg: cfg, fr: fr}
}

// Add folds one vehicle report into the fleet aggregates and retains it
// in the report's vehicle slice. Call in vehicle-index order for
// byte-identity with the unsharded run (float summation order).
func (m *MergeFold) Add(v VehicleReport) {
	m.fold(&v)
	m.fr.Vehicles = append(m.fr.Vehicles, v)
}

// fold accumulates one vehicle: its counters now, in arrival order (the
// float summation order byte-identity rests on), and its group block as
// part of the current run.
func (m *MergeFold) fold(v *VehicleReport) {
	if !sameBlock(v.Groups, m.run) {
		m.flushRun()
		m.run = v.Groups
	}
	m.runLen++
	fr := m.fr
	fr.Health.Merge(v.Health)
	fr.FramesDelivered += v.FramesDelivered
	fr.BusErrors += v.BusErrors
	fr.WriteBlocked += v.WriteBlocked
	fr.ReadBlocked += v.ReadBlocked
	fr.AbortedTx += v.AbortedTx
	fr.MACChecks += v.MACChecks
	fr.MACAllowed += v.MACAllowed
	m.utilSum += v.Utilisation
}

// flushRun folds the current run's block, scaled by its length, into the
// group aggregates.
func (m *MergeFold) flushRun() {
	for gi := range m.run {
		for ri := range m.run[gi] {
			m.fr.Groups[gi].Regimes[ri].Summary.Merge(m.run[gi][ri].Summary.Scale(m.runLen))
		}
	}
	m.run, m.runLen = nil, 0
}

// sameBlock reports whether a and b are the same block: one backing array,
// one length. Blocks are read-only, so that implies equal contents.
func sameBlock(a, b [][]attack.RegimeSummary) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Finish closes the fold and returns the fleet report. The MergeFold must
// not be used afterwards.
func (m *MergeFold) Finish() *FleetReport { return m.finish() }

func (m *MergeFold) finish() *FleetReport {
	m.flushRun()
	fr := m.fr
	groupRegimes := make([][]attack.RegimeSummary, len(fr.Groups))
	for gi := range fr.Groups {
		groupRegimes[gi] = fr.Groups[gi].Regimes
	}
	fr.Attacks = foldGroups(groupRegimes)
	if len(fr.Vehicles) > 0 {
		fr.MeanUtilisation = m.utilSum / float64(len(fr.Vehicles))
	}
	return fr
}

// orderedEmit sequences Config.OnVehicle callbacks: workers complete
// vehicles out of order, the emitter releases them strictly by index.
// Vehicles are claimed off an atomic cursor, so completion order tracks
// index order closely and the pending window stays near the worker count.
type orderedEmit struct {
	mu      sync.Mutex
	fn      func(*VehicleReport)
	reports []VehicleReport
	done    []bool
	next    int
}

func newOrderedEmit(fn func(*VehicleReport), reports []VehicleReport) *orderedEmit {
	return &orderedEmit{fn: fn, reports: reports, done: make([]bool, len(reports))}
}

// complete marks slot i finished and emits every report that is now
// contiguous from the emission cursor. Callbacks run under the lock —
// never concurrently, always in ascending index order.
func (e *orderedEmit) complete(i int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done[i] = true
	for e.next < len(e.done) && e.done[e.next] {
		e.fn(&e.reports[e.next])
		e.next++
	}
}
