// Package engine is the fleet-scale simulation engine: it sweeps N vehicle
// simulations — each driving a sim.Scheduler, canbus.Bus, car.Car and
// HPE/MAC stack — across a bounded worker pool and merges the per-vehicle
// outcomes into one fleet-wide report.
//
// The paper's evaluation (§V) drives a single connected car; its update
// story (§V-A.2) is about an OEM operating a population of them. The engine
// is the unit of scale that bridges the two: fleet sweeps of the Table I
// attack matrix, population-wide bus metrics, and live vehicles for the
// staged policy rollout in internal/fleet.
//
// # Pooled arenas
//
// By default each worker constructs its simulation stack once — an
// attack.Arena (car + per-node policy engines) and a single-owner MAC
// server — and resets it in place between the live background simulation,
// the MAC probe and every scenario×regime cell. Config.FreshVehicles
// selects the from-scratch reference path; both render byte-identical
// reports.
//
// # Cell-major evaluation
//
// The default run (no chaos plan, no NoBatch) is cell-major. The Table I
// attack matrix is a property of the policy, the scenario and the
// enforcement regime, not of the vehicle: the only consumer of a vehicle
// seed in the substrate is the bus error-injection RNG, attack cells reset
// the vehicle with error injection off, and attack.Summary holds only
// integer counters. So every vehicle's per-group block is the same block,
// and a fleet's aggregate is exactly Fleet × that block. The run therefore
//
//   - simulates each group's cells once: the prefix buckets of
//     attack.PlanBatches are claimed off one cursor across the workers, and
//     every cell of a bucket runs through attack.Arena.Run (reset, regime
//     provisioning, setup replay, tail);
//   - runs the live background phase and the MAC probe once when
//     ErrorRate is zero (the live phase consumes the seed otherwise, and
//     then runs per vehicle);
//   - fills each vehicle report with what varies (index, VIN, seed, live
//     counters, Health), sharing the one block, and derives the fleet's
//     group aggregates with attack.Summary.Scale.
//
// The chaos-armed run (Config.Chaos) and the NoBatch reference stay
// vehicle-major: each claimed vehicle runs its live phase, then every
// group's cells back to back on the same warm arena, so each vehicle really
// executes the cells its faults are rolled for. Cell-major and NoBatch
// runs render byte-identical reports, which the property tests and the CI
// smoke job assert; the seed-invariance premise is pinned by its own test.
//
// # Determinism
//
// Every vehicle derives its seed from the root seed via a SplitMix64 step,
// so vehicle i behaves identically regardless of which worker runs it or in
// what order vehicles are scheduled. Reports are merged in vehicle-index
// order (utilisation summed vehicle by vehicle, so the float bytes never
// depend on the path); two runs with the same Config produce byte-identical
// rendered reports whatever the worker count, with or without pooling.
//
// # Failure containment
//
// All cell execution runs under a supervisor (supervisor.go): a cell that
// panics or overruns its virtual-time budget is quarantined and retried
// (within a budget set by Config.MaxRetries, rebuilding the pooled arena
// after a panic); only a cell failing every attempt makes Run return an
// error — and even then Run returns the merged partial report alongside
// it. Config.Chaos arms deterministic fault injection (internal/chaos) for
// drilling these paths. Containment history accumulates in the report's
// Health ledger, itself a pure function of the config; a cell-major run
// books its cell-phase events once, on the run's first vehicle. See
// DESIGN.md §11.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mac"
)

// ScenarioGroup is one independently seeded scenario×regime block of a
// vehicle's sweep — a campaign family, in campaign terms. Per-group
// summaries are kept separate so the caller can fold them however its
// report requires.
type ScenarioGroup struct {
	// Name labels the group in the merged report (informational).
	Name string
	// Scenarios is the group's attack matrix (required).
	Scenarios []attack.Scenario
	// Regimes is the group's enforcement sweep (required).
	Regimes []attack.Enforcement
	// RootSeed feeds the group's per-vehicle seed derivation: vehicle i runs
	// this group with VehicleSeed(RootSeed, i), so groups decorrelate while
	// each remains a pure function of (group root, vehicle index).
	RootSeed uint64
}

// Config parameterises a fleet run.
type Config struct {
	// Fleet is the number of vehicles simulated (default 1).
	Fleet int
	// Workers bounds the worker pool (default runtime.GOMAXPROCS(0)).
	Workers int
	// IndexOffset shifts this run's vehicle indices into the global fleet
	// index space: the run simulates global vehicles [IndexOffset,
	// IndexOffset+Fleet). Seeds, VINs, and every supervision coordinate
	// (chaos fault rolls) key on the global index, so a sharded sweep — N
	// runs covering contiguous ranges — gives every vehicle exactly the
	// trajectory the unsharded run would, whatever the shard layout. Zero (the default) is the unsharded whole-fleet run. A
	// cell-major run simulates its cells under the seeds of its first
	// vehicle, IndexOffset.
	IndexOffset int
	// Groups are the scenario groups swept per vehicle (required): a
	// compiled campaign's families, or the one unnamed Table I group of a
	// plain fleet sweep. Each group carries its own scenarios, regimes and
	// root seed; the live background phase derives its seed from the first
	// group's root, which the fleet report echoes as its RootSeed.
	Groups []ScenarioGroup
	// TrafficHorizon is the virtual span of the live background simulation
	// (default 50ms).
	TrafficHorizon time.Duration
	// ErrorRate enables bus error injection in the background simulation.
	ErrorRate float64
	// FreshVehicles disables vehicle pooling: every vehicle (and every
	// scenario×regime cell inside it) constructs its simulation stack from
	// scratch, as the engine originally did. Pooled (default) and fresh
	// runs produce byte-identical reports; the fresh path survives as the
	// reference implementation the reset-equivalence tests compare against.
	FreshVehicles bool
	// Harness optionally supplies a pre-built attack harness (compiled
	// policy + cycle model) the run reuses instead of deriving its own —
	// campaign sweeps call Run once per scenario family and share one
	// harness across all of them.
	Harness *attack.Harness
	// PolicyBackend names the policy backend vehicles enforce with ("table",
	// "expr", "closure"; empty = table). Ignored when Harness is supplied —
	// the harness already carries its backend.
	PolicyBackend string
	// SkipLive skips the per-vehicle live background simulation phase (its
	// bus counters and utilisation report as zero). Campaign sweeps enable
	// it for every family after the first.
	SkipLive bool
	// SkipMAC skips the per-vehicle MAC least-privilege probe (and the MAC
	// module derivation entirely).
	SkipMAC bool
	// NoBatch disables the cell-major sweep: no prefix grouping and no
	// fleet scaling — every vehicle runs every scenario×regime cell itself.
	// Cell-major (default) and NoBatch runs render byte-identical reports;
	// the vehicle-major run survives as the reference the fleet-scaling
	// tests and the CI cell-major smoke job compare against.
	NoBatch bool
	// Chaos optionally arms deterministic fault injection: the plan decides,
	// as a pure function of (vehicle, group, regime, scenario, attempt)
	// coordinates, which cells panic or overrun their deadline, and which
	// vehicle visits crash. An active plan makes the run vehicle-major so
	// every vehicle actually executes its cells. Nil means no injection
	// (the supervisor still contains organic failures).
	Chaos *chaos.Plan
	// MaxRetries bounds the supervisor's retry budget: a failing cell gets
	// 2*MaxRetries+1 retries; a crashing vehicle visit gets MaxRetries
	// re-runs. Default 2.
	MaxRetries int
	// CellTimeBudget is the virtual-clock watchdog: a cell that leaves the
	// simulated clock past this budget is quarantined as a deadline overrun.
	// Virtual time, not wall time — healthy cells finish in simulated
	// milliseconds. Default 1 minute.
	CellTimeBudget time.Duration
	// OnVehicle, when non-nil, is invoked once per completed vehicle
	// report in ascending vehicle-index order, as soon as every
	// lower-indexed vehicle has also completed — the streaming emit hook
	// the binary shard wire writes frames from. Callbacks run serialised
	// under an internal lock (never concurrently) on worker goroutines;
	// the report pointer is only valid for the duration of the call.
	// Errored vehicles still emit their (partial) report, mirroring how
	// Run merges partial reports into the fleet result. Because vehicles
	// are claimed in index order off an atomic cursor, completion order
	// tracks index order and the emitter's reorder window stays near the
	// worker count. A cell-major run emits once every cell has run, so
	// every report carries the finished block.
	OnVehicle func(*VehicleReport)
}

// trafficPeriod and trafficSpeed shape the live background simulation's
// legitimate traffic: one frame per period, carrying the vehicle speed.
const (
	trafficPeriod = time.Millisecond
	trafficSpeed  = 88
)

func (c *Config) applyDefaults() error {
	if c.Fleet <= 0 {
		c.Fleet = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Fleet {
		c.Workers = c.Fleet
	}
	if len(c.Groups) == 0 {
		return fmt.Errorf("engine: config has no scenario groups")
	}
	for i := range c.Groups {
		if len(c.Groups[i].Scenarios) == 0 {
			return fmt.Errorf("engine: group %d (%q) has no scenarios", i, c.Groups[i].Name)
		}
		if len(c.Groups[i].Regimes) == 0 {
			return fmt.Errorf("engine: group %d (%q) has no regimes", i, c.Groups[i].Name)
		}
	}
	if c.TrafficHorizon <= 0 {
		c.TrafficHorizon = 50 * time.Millisecond
	}
	return nil
}

// VehicleSeed derives the deterministic seed of vehicle index from the root
// seed (a SplitMix64 output step, so neighbouring indices decorrelate).
func VehicleSeed(root uint64, index int) uint64 {
	z := root + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// VIN formats the deterministic vehicle identifier for an index: "VIN-"
// and the index zero-padded to six digits, exactly fmt's "VIN-%06d"
// without its per-call cost (every vehicle report carries one).
func VIN(index int) string {
	if index < 0 {
		return fmt.Sprintf("VIN-%06d", index)
	}
	var b [24]byte
	out := append(b[:0], "VIN-"...)
	for p := 100000; p > 1 && index < p; p /= 10 {
		out = append(out, '0')
	}
	return string(strconv.AppendInt(out, int64(index), 10))
}

// macCheck is one precomputed least-privilege probe: the security contexts
// are built once per fleet run instead of re-rendering the SELinux type
// strings for every vehicle (string formatting was ~10% of a sweep's CPU).
type macCheck struct {
	src, tgt mac.Context
}

// shared holds the immutable artifacts every vehicle reuses: the compiled
// policy and cycle model (inside the harness), the derived MAC module and
// the precomputed probe contexts.
type shared struct {
	cfg       Config
	harness   *attack.Harness
	macModule *mac.Module
	probes    []macCheck // legitimate catalog writers, in catalog order
	spoof     macCheck   // the infotainment→ECU spoof probe
	// plans holds each group's prefix buckets, as scenario-index lists (nil
	// when Config.NoBatch): plans are immutable, so all workers share them.
	plans [][][]int
	// sup is the resolved supervision configuration (chaos plan, retry
	// budget, deadline budget) every worker consults.
	sup supervisorCfg
}

// buildProbes precomputes the least-privilege probe contexts.
func buildProbes(sh *shared) {
	for _, m := range car.Catalog {
		for _, w := range m.Writers {
			sh.probes = append(sh.probes, macCheck{
				src: core.MACContext(w),
				tgt: core.MessageContext(m.ID),
			})
		}
	}
	sh.spoof = macCheck{
		src: core.MACContext(car.NodeInfotainment),
		tgt: core.MessageContext(car.IDECUCommand),
	}
}

// Run executes the fleet sweep and merges per-vehicle outcomes in vehicle
// order. The default run is cell-major: every cell is simulated once and
// the fleet derived from that block. A chaos-armed run and the NoBatch
// reference are vehicle-major: each claimed vehicle runs its live
// background phase once and then every group's scenario×regime cells back
// to back on the same warm arena.
func Run(cfg Config) (*FleetReport, error) {
	sh, err := newShared(cfg)
	if err != nil {
		return nil, err
	}
	pool, err := newWorkerPool(sh)
	if err != nil {
		return nil, err
	}
	if sh.plans != nil && !sh.sup.plan.Active() {
		return sh.runCellMajor(pool)
	}
	return sh.runVehicleMajor(pool)
}

// newShared resolves the run's defaults and builds its shared artifacts.
func newShared(cfg Config) (*shared, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	h := cfg.Harness
	if h == nil {
		var err error
		if h, err = attack.NewHarnessBackend(cfg.PolicyBackend); err != nil {
			return nil, err
		}
	}
	sh := &shared{cfg: cfg, harness: h}
	sh.sup = supervisorCfg{
		plan:       cfg.Chaos,
		maxRetries: cfg.MaxRetries,
		timeBudget: cfg.CellTimeBudget,
	}
	if sh.sup.maxRetries <= 0 {
		sh.sup.maxRetries = defaultMaxRetries
	}
	if sh.sup.timeBudget <= 0 {
		sh.sup.timeBudget = defaultTimeBudget
	}
	if !cfg.NoBatch {
		sh.plans = make([][][]int, len(cfg.Groups))
		for gi := range cfg.Groups {
			sh.plans[gi] = attack.PlanBatches(cfg.Groups[gi].Scenarios)
		}
	}
	if !cfg.SkipMAC {
		analysis, err := car.Analyze()
		if err != nil {
			return nil, err
		}
		module, err := core.DeriveMACModule(analysis, "car-base", 1)
		if err != nil {
			return nil, err
		}
		sh.macModule = module
		buildProbes(sh)
	}
	return sh, nil
}

// vehicleSeed is the seed of vehicle index: its live phase and its report
// key on the first group's root.
func (sh *shared) vehicleSeed(index int) uint64 {
	return VehicleSeed(sh.cfg.Groups[0].RootSeed, index)
}

// runCellMajor is the default sweep. Attack cells pin ErrorRate 0, and the
// bus error RNG is the only consumer of a seed in the substrate, so a cell's
// result does not depend on which vehicle runs it: the run simulates each
// cell once and derives the fleet from that one block.
//
//   - Phase 1, cells: every group's prefix buckets are claimed off one
//     cursor and run once, on the claiming worker's arena (fresh cars under
//     FreshVehicles), every cell behind the supervisor's containment ladder.
//   - Phase 2, live phase and MAC probe: once, when ErrorRate is zero;
//     otherwise the live phase runs per vehicle in phase 3.
//   - Phase 3, fold: each vehicle report is filled in its slot with what
//     varies (index, VIN, seed, live counters, Health) and shares the one
//     block; the fleet aggregates are the block scaled by the fleet size.
//
// Cell-phase containment events land once, on the run's first vehicle.
func (sh *shared) runCellMajor(pool *workerPool) (*FleetReport, error) {
	cfg := &sh.cfg
	type unit struct{ group, bucket int }
	var units []unit
	for gi, p := range sh.plans {
		for bi := range p {
			units = append(units, unit{gi, bi})
		}
	}
	sums := make([][]attack.RegimeSummary, len(units))
	healths := make([]Health, len(units))
	cellErr := pool.each(len(units), func(ar *arena, k int) error {
		u := units[k]
		g := &cfg.Groups[u.group]
		e := sh.newCellExec(ar, &healths[k], cfg.IndexOffset, u.group)
		e.cells = sh.plans[u.group][u.bucket]
		var err error
		if sums[k], err = runGroupCells(e, g); err != nil {
			return fmt.Errorf("group %d (%q): %w", u.group, g.Name, err)
		}
		return nil
	})
	block := make([][]attack.RegimeSummary, len(cfg.Groups))
	for gi := range cfg.Groups {
		block[gi] = make([]attack.RegimeSummary, len(cfg.Groups[gi].Regimes))
		for ri, enf := range cfg.Groups[gi].Regimes {
			block[gi][ri].Regime = enf
		}
	}
	var cellHealth Health
	for k, u := range units {
		for ri := range sums[k] {
			block[u.group][ri].Summary.Merge(sums[k][ri].Summary)
		}
		cellHealth.Merge(healths[k])
	}

	tmpl := VehicleReport{Groups: block}
	perVehicleLive := !cfg.SkipLive && cfg.ErrorRate != 0
	var onceErr error
	if !cfg.SkipLive && !perVehicleLive {
		tmpl.Seed = sh.vehicleSeed(cfg.IndexOffset)
		onceErr = sh.runLive(pool.arenas[0], &tmpl)
	}
	if !cfg.SkipMAC {
		onceErr = errors.Join(onceErr, sh.runMAC(pool.arenas[0], &tmpl))
	}

	reports := make([]VehicleReport, cfg.Fleet)
	var emit *orderedEmit
	if cfg.OnVehicle != nil {
		emit = newOrderedEmit(cfg.OnVehicle, reports)
	}
	vehErr := pool.each(cfg.Fleet, func(ar *arena, i int) error {
		rep := &reports[i]
		*rep = tmpl
		index := i + cfg.IndexOffset
		rep.Index, rep.VIN, rep.Seed = index, VIN(index), sh.vehicleSeed(index)
		if i == 0 {
			rep.Health = cellHealth
		}
		var err error
		if perVehicleLive {
			err = sh.runLive(ar, rep)
		}
		if emit != nil {
			emit.complete(i)
		}
		return err
	})
	return merge(*cfg, reports), errors.Join(cellErr, onceErr, vehErr)
}

// runVehicleMajor is the chaos-armed and NoBatch sweep: every vehicle visit
// runs all of its cells itself, so chaos faults land on the vehicles they
// are rolled for and the Health ledger counts what each vehicle executed.
func (sh *shared) runVehicleMajor(pool *workerPool) (*FleetReport, error) {
	cfg := &sh.cfg
	reports := make([]VehicleReport, cfg.Fleet)
	var emit *orderedEmit
	if cfg.OnVehicle != nil {
		emit = newOrderedEmit(cfg.OnVehicle, reports)
	}
	err := pool.each(cfg.Fleet, func(ar *arena, i int) error {
		// Simulate under the global fleet index (shifted by the shard
		// offset); the report still lands in the local slot so merge order
		// stays range-local.
		var err error
		reports[i], err = sh.runVehicle(ar, i+cfg.IndexOffset)
		if emit != nil {
			emit.complete(i)
		}
		return err
	})
	// Unrecoverable vehicles surface as an error, but the sweep still merges
	// what every vehicle did complete: callers flush the partial fleet
	// report (with its Health ledger) alongside the failure.
	return merge(*cfg, reports), err
}

// workerPool is the run's bounded set of workers. Each owns one pooled
// arena (none under FreshVehicles), built once and kept across the run's
// phases.
type workerPool struct {
	arenas []*arena
}

// newWorkerPool builds one arena per worker, in parallel. Arena
// construction only fails on programming errors, which fail the run.
func newWorkerPool(sh *shared) (*workerPool, error) {
	p := &workerPool{arenas: make([]*arena, sh.cfg.Workers)}
	if sh.cfg.FreshVehicles {
		return p, nil
	}
	errs := make([]error, len(p.arenas))
	var wg sync.WaitGroup
	for w := range p.arenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.arenas[w], errs[w] = newArena(sh)
		}()
	}
	wg.Wait()
	return p, errors.Join(errs...)
}

// each runs fn for every index in [0, n) across the pool, passing the
// claiming worker's arena. Work is claimed off a shared atomic cursor, not
// a channel: an unbuffered-channel dispatcher made the feeding goroutine a
// serialisation point (one rendezvous per vehicle), while a fetch-add keeps
// claims in index order at zero coordination cost. The failed indices'
// errors are joined in index order, so the error does not depend on which
// worker ran what.
func (p *workerPool) each(n int, fn func(ar *arena, i int) error) error {
	type failure struct {
		i   int
		err error
	}
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []failure
	)
	for _, ar := range p.arenas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(ar, i); err != nil {
					mu.Lock()
					failed = append(failed, failure{i, err})
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	slices.SortFunc(failed, func(a, b failure) int { return a.i - b.i })
	errs := make([]error, len(failed))
	for k, f := range failed {
		errs[k] = f.err
	}
	return errors.Join(errs...)
}

// arena is one worker's reusable vehicle stack: the attack arena (car +
// pooled policy engines) and a single-owner MAC server with the derived
// module loaded. Constructed once per worker and reset in place for every
// cell, live phase and probe the worker runs.
type arena struct {
	att *attack.Arena
	srv *mac.Server
}

func newArena(sh *shared) (*arena, error) {
	att, err := sh.harness.NewArena()
	if err != nil {
		return nil, err
	}
	a := &arena{att: att}
	if !sh.cfg.SkipMAC {
		a.srv = mac.NewServer(mac.WithSingleOwner())
		if err := a.srv.Load(sh.macModule); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// runVehicle is one supervised vehicle visit of the vehicle-major sweep, on
// the worker's arena (on fresh cars, the reference path pooled runs are
// compared against, when ar is nil): the live phase, the MAC probe, then
// every scenario group's cells back to back, each cell behind the
// supervisor's containment ladder — cross-group isolation rests on the
// arena's reset-equals-fresh contract, which resets the vehicle per cell. A
// crash (injected or organic panic at visit scope) rebuilds the worker's
// arena and re-runs the vehicle; fresh visits have no stack to rebuild.
func (sh *shared) runVehicle(ar *arena, index int) (VehicleReport, error) {
	var rebuild func() error
	if ar != nil {
		rebuild = func() error {
			na, err := newArena(sh)
			if err != nil {
				return err
			}
			*ar = *na
			return nil
		}
	}
	return superviseVisit(&sh.sup,
		func(attempt int, h *Health) (VehicleReport, error) {
			return sh.visit(ar, index, attempt, h)
		}, rebuild)
}

// visit is one attempt of one vehicle visit.
func (sh *shared) visit(ar *arena, index, attempt int, h *Health) (rep VehicleReport, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: vehicle %d: %v", ErrVehicleCrash, index, p)
		}
	}()
	rep = VehicleReport{Index: index, VIN: VIN(index), Seed: sh.vehicleSeed(index)}
	if !sh.cfg.SkipLive {
		if err := sh.runLive(ar, &rep); err != nil {
			return rep, err
		}
	}
	if !sh.cfg.SkipMAC {
		if err := sh.runMAC(ar, &rep); err != nil {
			return rep, err
		}
	}

	// Every group's scenario×regime block, reseeded per group so each block
	// is a pure function of (group root, index), every cell supervised.
	rep.Groups = make([][]attack.RegimeSummary, len(sh.cfg.Groups))
	for gi := range sh.cfg.Groups {
		g := &sh.cfg.Groups[gi]
		if sh.sup.plan.CrashFault(index, gi, attempt) {
			panic(&chaos.InjectedCrash{Vehicle: index, Group: gi, Attempt: attempt})
		}
		e := sh.newCellExec(ar, h, index, gi)
		sums, gerr := runGroupCells(e, g)
		rep.Groups[gi] = sums
		if gerr != nil {
			return rep, fmt.Errorf("group %d (%q): %w", gi, g.Name, gerr)
		}
	}
	return rep, nil
}

// newCellExec prepares supervision of group gi's cells for vehicle index:
// on the worker's arena, reseeded with the vehicle's group seed, or on
// fresh cars when ar is nil. The caller narrows the cells, if at all.
func (sh *shared) newCellExec(ar *arena, h *Health, index, gi int) *cellExec {
	seed := VehicleSeed(sh.cfg.Groups[gi].RootSeed, index)
	e := &cellExec{
		sup: &sh.sup, health: h, sh: sh,
		vehicle: index, group: gi, seed: seed,
	}
	if ar != nil {
		ar.att.SetSeed(seed)
		e.owner = ar
	} else {
		e.hv = sh.harness.WithSeed(seed)
	}
	return e
}

// runLive runs the live background simulation under rep.Seed — on the
// worker's reset arena with re-provisioned pooled engines, or on a fresh
// car with freshly deployed engines when ar is nil — and books its bus and
// scheduler counters into rep.
func (sh *shared) runLive(ar *arena, rep *VehicleReport) error {
	ccfg := car.Config{Seed: rep.Seed, ErrorRate: sh.cfg.ErrorRate}
	var c *car.Car
	var err error
	if ar != nil {
		c, err = ar.att.StartLive(ccfg)
	} else if c, err = car.New(ccfg); err == nil {
		_, err = sh.harness.DeployEngines(c.Bus(), c, car.AllNodes...)
	}
	if err != nil {
		return err
	}
	c.StartTraffic(trafficPeriod, sh.cfg.TrafficHorizon, trafficSpeed)
	c.Scheduler().Run()
	collectLive(rep, c)
	return nil
}

// runMAC runs the least-privilege probe on the worker's reset MAC server,
// or on a fresh server loaded with the derived module when ar is nil.
func (sh *shared) runMAC(ar *arena, rep *VehicleReport) error {
	var srv *mac.Server
	if ar != nil {
		srv = ar.srv
		srv.Reset()
	} else {
		srv = mac.NewServer()
		if err := srv.Load(sh.macModule); err != nil {
			return err
		}
	}
	macProbe(rep, srv, sh)
	return nil
}

// foldGroups flattens per-group regime summaries into one aggregate per
// regime, keyed by first appearance across groups. A single-group run folds
// to exactly its group's summaries, preserving the legacy report shape. The
// result is always freshly allocated — the legacy Attacks view must never
// alias a group's own slice, or a caller folding into one would corrupt
// the other.
func foldGroups(groups [][]attack.RegimeSummary) []attack.RegimeSummary {
	if len(groups) == 1 {
		return append([]attack.RegimeSummary(nil), groups[0]...)
	}
	var out []attack.RegimeSummary
	for _, g := range groups {
		for _, rs := range g {
			merged := false
			for i := range out {
				if out[i].Regime == rs.Regime {
					out[i].Summary.Merge(rs.Summary)
					merged = true
					break
				}
			}
			if !merged {
				out = append(out, rs)
			}
		}
	}
	return out
}

// collectLive folds the live background simulation's bus and scheduler
// counters into the vehicle report.
func collectLive(rep *VehicleReport, c *car.Car) {
	bs := c.Bus().Stats()
	rep.FramesDelivered = bs.FramesDelivered
	rep.BusErrors = bs.Errors
	rep.WriteBlocked = bs.WriteBlocked
	rep.ReadBlocked = bs.ReadBlocked
	rep.AbortedTx = bs.AbortedTx
	rep.Utilisation = c.Bus().Utilisation()
	rep.SchedulerSteps = c.Scheduler().Steps()
}

// macProbe runs the least-privilege probe: every legitimate catalog writer
// must be allowed, plus one spoof path (infotainment commanding the ECU)
// that must not be.
func macProbe(rep *VehicleReport, srv *mac.Server, sh *shared) {
	for _, p := range sh.probes {
		rep.MACChecks++
		if srv.Check(p.src, p.tgt, core.MACClassCAN, core.MACPermWrite).Allowed {
			rep.MACAllowed++
		}
	}
	rep.MACChecks++
	if srv.Check(sh.spoof.src, sh.spoof.tgt, core.MACClassCAN, core.MACPermWrite).Allowed {
		rep.MACAllowed++ // would indicate a broken least-privilege matrix
	}
}

// Merge folds externally produced per-vehicle reports into one fleet report,
// exactly as Run does for its own workers: aggregates are summed, Health
// ledgers merged, and MeanUtilisation re-folded over the vehicle slice in
// order — so a sharded sweep that concatenates its shards' vehicles in range
// order renders byte-identically to the unsharded run (float summation order
// included). cfg must describe the whole fleet (total Fleet, the unsharded
// Workers value, zero IndexOffset); the same defaults Run applies are
// applied here so the report header matches.
func Merge(cfg Config, vehicles []VehicleReport) (*FleetReport, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return merge(cfg, vehicles), nil
}

// merge folds per-vehicle reports (in index order) into the fleet report:
// the batch form of MergeFold — the fold walked over a slice, retaining
// the slice itself as the report's vehicle view (no copy).
func merge(cfg Config, vehicles []VehicleReport) *FleetReport {
	m := newMergeFold(cfg)
	for i := range vehicles {
		m.fold(&vehicles[i])
	}
	m.fr.Vehicles = vehicles
	return m.finish()
}
