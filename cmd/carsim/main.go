// Command carsim runs the connected-car simulation: it can print the Fig. 2
// topology and Fig. 3/4 architecture views, replay the sixteen Table I
// attack scenarios under selectable enforcement regimes, trace bus
// activity, and sweep a whole fleet of independent vehicle simulations
// across a bounded worker pool.
//
// Usage:
//
//	carsim -print-topology
//	carsim -attack all -enforcement none,software,hpe
//	carsim -attack EVECU-1 -enforcement hpe -trace
//	carsim -fleet 100 -workers 8 -seed 42
//	carsim -fleet 1000 -reuse=false   # fresh-construction reference mode
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 100
//	carsim -campaign examples/campaigns/quickstart.campaign -list-scenarios
//	carsim -risk examples/threatmodels/connected-car.json
//	carsim -risk examples/threatmodels/connected-car.json -list-scenarios
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 50 -chaos "seed=7,panic=0.01,crash=0.002"
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 100 -cpuprofile cpu.out -memprofile mem.out
//	carsim -campaign examples/campaigns/quickstart.campaign -fleet 1000 -shards 4 -shard-exec -shard-parallelism 2
//
// Every sweep flag binds into one campaign.SweepConfig. With -shard-exec,
// each shard runs as a carsim child (the hidden -shard-range mode) that
// streams its vehicles to the parent on the binary shard wire.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/hpe"
	"repro/internal/policy/ir"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/shard"
)

// errPartialSweep marks an unrecoverable sweep whose partial report was
// still flushed to stdout; main maps it to exit code 3, distinct from the
// generic failure exit 1, so callers can tell "failed with evidence" from
// "failed outright".
var errPartialSweep = errors.New("sweep unrecoverable, partial report flushed")

// options is everything carsim's command line selects. The sweep flags
// bind straight into sweep, the one configuration every sweeping mode —
// campaign, risk, the Table I fleet and a shard child — runs under.
type options struct {
	topology, hpeView, latency, trace, detail, listScenarios bool
	nodeArch, attackSel, enforcement                         string
	campaignFile, riskFile                                   string
	cpuProfile, memProfile                                   string
	// shardRange, when non-empty, puts this process in shard-child mode:
	// run only that "start:count" slice of the whole-fleet config and
	// stream the wire report to stdout.
	shardRange string
	sweep      campaign.SweepConfig
	usage      func()
}

// parseFlags parses carsim's command line; -shard-exec arms
// sweep.SpawnShard with the subprocess hook. A malformed flag exits 2 (the
// flag package's contract); a value outside its domain returns an error.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	s := &o.sweep
	fs := flag.NewFlagSet("carsim", flag.ExitOnError)
	fs.BoolVar(&o.topology, "print-topology", false, "print the Fig. 2 topology and exit")
	fs.StringVar(&o.nodeArch, "print-node", "", "print the Fig. 3 internals of the named node and exit")
	fs.BoolVar(&o.hpeView, "print-hpe", false, "print the Fig. 4 policy-engine view of the EV-ECU and exit")
	fs.StringVar(&o.attackSel, "attack", "", "threat id to replay, or \"all\"")
	fs.StringVar(&o.enforcement, "enforcement", "none,hpe", "comma-separated regimes: none, software, hpe")
	fs.BoolVar(&o.trace, "trace", false, "print bus trace events during attacks")
	fs.BoolVar(&o.latency, "latency", false, "run the differing-criticality latency experiment (E1)")
	fs.IntVar(&s.Fleet, "fleet", 0, "sweep N independent vehicle simulations and print the merged fleet report")
	fs.IntVar(&s.Workers, "workers", 0, "bound the fleet worker pool (default GOMAXPROCS)")
	fs.Uint64Var(&s.RootSeed, "seed", 1, "root seed for deterministic per-vehicle seed derivation")
	reuse := fs.Bool("reuse", true, "pool vehicles per worker (reset in place); false rebuilds every stack from scratch")
	fs.BoolVar(&s.NoBatch, "no-batch", false, "run every cell on every vehicle (vehicle-major reference) instead of the cell-major default (each cell once, scaled to the fleet); reports are byte-identical either way")
	fs.BoolVar(&o.detail, "detail", false, "with -campaign: append the verbose per-family detail block (stage counters included)")
	fs.StringVar(&o.campaignFile, "campaign", "", "compile a campaign spec (text or JSON) and sweep it across the fleet")
	fs.StringVar(&o.riskFile, "risk", "", "run a risk spec: synthesize a campaign from its threat model, sweep it, print the calibrated profile")
	fs.BoolVar(&o.listScenarios, "list-scenarios", false, "with -campaign or -risk: dump the generated scenario matrix without running it")
	chaosSpec := fs.String("chaos", "", "arm deterministic fault injection, e.g. \"seed=7,panic=0.01,deadline=0.002,crash=0.001\" (\"off\" disables); an armed run is vehicle-major")
	fs.StringVar(&s.PolicyBackend, "policy-backend", "", "policy enforcement backend for swept vehicles: "+strings.Join(ir.Names(), ", ")+" (default table)")
	fs.IntVar(&s.Shards, "shards", 0, "partition the fleet index space into N contiguous ranges run as independent engine runs; the merged report is byte-identical to the unsharded sweep")
	shardExec := fs.Bool("shard-exec", false, "with -shards: run each shard as a carsim subprocess (binary shard wire over stdout) instead of in-process")
	shardWire := fs.String("shard-wire", "binary", "with -shard-exec: subprocess wire format; \"binary\" (the streaming frame protocol) is the only one")
	fs.IntVar(&s.ShardParallelism, "shard-parallelism", 1, "with -shard-exec: run up to P subprocess shards concurrently; the merge stays in range order, so the report is byte-identical at any P")
	fs.StringVar(&o.shardRange, "shard-range", "", "internal: run only this start:count slice of the fleet and emit the shard wire report on stdout (set by -shard-exec parents)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (inspect with `go tool pprof`)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file when the run finishes")
	fs.Parse(args)
	o.usage = fs.Usage
	s.FreshVehicles = !*reuse

	var err error
	if s.Chaos, err = chaos.Parse(*chaosSpec); err != nil {
		return nil, err
	}
	if s.Fleet < 0 {
		return nil, fmt.Errorf("-fleet %d is negative", s.Fleet)
	}
	if s.Workers < 0 {
		return nil, fmt.Errorf("-workers %d is negative", s.Workers)
	}
	if _, err := ir.Lookup(s.PolicyBackend); err != nil {
		return nil, err
	}
	if s.Shards < 0 {
		return nil, fmt.Errorf("-shards %d is negative", s.Shards)
	}
	switch *shardWire {
	case "binary":
	case "json":
		return nil, errors.New("-shard-wire json: the JSON shard wire was removed; binary is the only wire format")
	default:
		return nil, fmt.Errorf("-shard-wire %q (want binary)", *shardWire)
	}
	if s.ShardParallelism < 1 {
		return nil, fmt.Errorf("-shard-parallelism %d (want >= 1)", s.ShardParallelism)
	}
	if *shardExec {
		s.SpawnShard = o.spawnShard
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	stopProfiles, err := startProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		os.Exit(1)
	}
	// Profiles are flushed through a defer before the exit-code decision, so
	// a failing — or panicking — sweep can still be diagnosed from them.
	var flushErr error
	err = func() error {
		defer func() { flushErr = stopProfiles() }()
		return run(o)
	}()
	if err == nil {
		err = flushErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "carsim:", err)
		if errors.Is(err, errPartialSweep) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// startProfiles arms the requested pprof outputs and returns the flush
// function: CPU profiling stops and the heap profile is written (after a
// final GC, so the snapshot shows live retention rather than garbage) when
// the run ends, whether it succeeded or not. Both files are created up
// front so a bad path fails before the sweep runs, not after.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile, memFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		memFile = f
	}
	return func() error {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if memFile != nil {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(memFile); werr != nil && err == nil {
				err = werr
			}
			if cerr := memFile.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}, nil
}

func run(o *options) error {
	switch {
	case o.topology:
		fmt.Print(report.Topology())
		return nil
	case o.nodeArch != "":
		fmt.Print(report.NodeArchitecture(o.nodeArch))
		return nil
	case o.hpeView:
		return printHPEView()
	case o.latency:
		return runLatency()
	case o.shardRange != "":
		return runShardChild(o)
	case o.campaignFile != "":
		return runCampaign(o)
	case o.riskFile != "":
		return runRisk(o)
	case o.listScenarios:
		return fmt.Errorf("-list-scenarios requires -campaign or -risk")
	case o.sweep.Fleet > 0:
		return runFleet(o)
	case o.attackSel == "":
		o.usage()
		return fmt.Errorf("nothing to do: pass -print-topology, -print-node, -print-hpe, -latency, -campaign, -risk, -fleet or -attack")
	}
	return runAttacks(o.attackSel, o.enforcement, o.trace, o.sweep.PolicyBackend)
}

// loadPlan reads and compiles a campaign spec file.
func loadPlan(path string) (*campaign.Plan, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := campaign.Parse(string(raw))
	if err != nil {
		return nil, err
	}
	return (campaign.Compiler{}).Compile(spec)
}

// loadRiskSpec reads a risk spec file.
func loadRiskSpec(path string) (*risk.Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return risk.ParseSpec(string(raw))
}

// engineConfig builds the whole-fleet engine configuration of the current
// mode — campaign, risk, or the Table I fleet sweep — from the parsed
// options, so a shard child partitions exactly the index space its parent
// did. The Table I sweep leaves TrafficHorizon to the engine's 50 ms
// default (campaign sweeps default to 10 ms).
func engineConfig(o *options) (engine.Config, error) {
	s := o.sweep
	switch {
	case o.campaignFile != "":
		plan, err := loadPlan(o.campaignFile)
		if err != nil {
			return engine.Config{}, err
		}
		return campaign.EngineConfig(plan, s)
	case o.riskFile != "":
		spec, err := loadRiskSpec(o.riskFile)
		if err != nil {
			return engine.Config{}, err
		}
		out, scfg, err := risk.SweepSetup(spec, s)
		if err != nil {
			return engine.Config{}, err
		}
		return campaign.EngineConfig(out.Plan, scfg)
	}
	regimes, err := parseRegimes(o.enforcement)
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{
		Fleet:          s.Fleet,
		Workers:        s.Workers,
		RootSeed:       s.RootSeed,
		Regimes:        regimes,
		TrafficHorizon: s.TrafficHorizon,
		ErrorRate:      s.ErrorRate,
		FreshVehicles:  s.FreshVehicles,
		Harness:        s.Harness,
		PolicyBackend:  s.PolicyBackend,
		NoBatch:        s.NoBatch,
		Chaos:          s.Chaos,
		MaxRetries:     s.MaxRetries,
	}, nil
}

// runShardChild is the hidden -shard-range mode a -shard-exec parent spawns:
// rebuild the whole-fleet configuration from the forwarded flags, run only
// the assigned index slice, and stream it to stdout on the binary wire,
// frame by frame as vehicles complete. The child exits 0 whenever the
// stream is written — an unrecoverable sweep travels in the trailer,
// exactly as engine.Run returns the partial report alongside its error.
func runShardChild(o *options) error {
	r, err := shard.ParseRange(o.shardRange)
	if err != nil {
		return err
	}
	ecfg, err := engineConfig(o)
	if err != nil {
		return err
	}
	return shard.RunRangeWire(ecfg, r, os.Stdout)
}

// childArgs is the argv of the shard child that runs range r: the mode
// plus every sweep flag that shapes the whole-fleet engine configuration.
func childArgs(o *options, r shard.Range) []string {
	s := &o.sweep
	args := []string{
		"-shard-range", r.String(),
		"-fleet", strconv.Itoa(s.Fleet),
		"-workers", strconv.Itoa(s.Workers),
		"-seed", strconv.FormatUint(s.RootSeed, 10),
	}
	switch {
	case o.campaignFile != "":
		args = append(args, "-campaign", o.campaignFile)
	case o.riskFile != "":
		args = append(args, "-risk", o.riskFile)
	default:
		args = append(args, "-enforcement", o.enforcement)
	}
	if s.FreshVehicles {
		args = append(args, "-reuse=false")
	}
	if s.NoBatch {
		args = append(args, "-no-batch")
	}
	if s.Chaos != nil {
		args = append(args, "-chaos", s.Chaos.String())
	}
	if s.PolicyBackend != "" {
		args = append(args, "-policy-backend", s.PolicyBackend)
	}
	return args
}

// spawnShard is the -shard-exec spawn hook: re-invoke this binary as the
// shard child of range r and decode its binary wire stream from stdout
// incrementally (the parent never buffers a shard's report set). Child
// stderr passes through for diagnostics.
func (o *options) spawnShard(r shard.Range) (shard.Stream, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(o, r)...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("subprocess shard %s: %w", r, err)
	}
	return shard.NewWireStream(pipe, func() error {
		// Closing the read end first unblocks a child still writing
		// after a mid-stream decode error, so Wait cannot hang.
		pipe.Close()
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("subprocess shard %s: %w", r, err)
		}
		return nil
	}), nil
}

// flushPartial handles an unrecoverable campaign or risk sweep: with a
// partial report, print it — its Health ledger is the evidence an operator
// debugs from — and fail with exit code 3; without one, fail outright.
func flushPartial(o *options, rep *campaign.CampaignReport, err error) error {
	if rep == nil {
		return err
	}
	fmt.Printf("mode=%s\n", execMode(o.sweep.NoBatch))
	fmt.Print(report.CampaignView(rep))
	return fmt.Errorf("%w: %v", errPartialSweep, err)
}

// runCampaign compiles a campaign spec and either lists its generated
// scenario matrix or sweeps it across the fleet, printing the deterministic
// campaign view plus a separate wall-clock throughput line.
func runCampaign(o *options) error {
	plan, err := loadPlan(o.campaignFile)
	if err != nil {
		return err
	}
	if o.listScenarios {
		fmt.Print(plan.Matrix())
		return nil
	}
	start := time.Now()
	rep, err := campaign.Sweep(plan, o.sweep)
	if err != nil {
		return flushPartial(o, rep, err)
	}
	elapsed := time.Since(start)
	fmt.Printf("mode=%s\n", execMode(o.sweep.NoBatch))
	if o.detail {
		fmt.Print(report.CampaignDetailView(rep))
	} else {
		fmt.Print(report.CampaignView(rep))
	}
	printSweepThroughput(rep, o.sweep.FreshVehicles, elapsed)
	return nil
}

// printSweepThroughput prints the wall-clock line of a campaign or risk
// sweep. Unique cells are the campaign's distinct (scenario, regime) cells,
// the ones a cell-major sweep simulates; fleet cells multiply them by the
// fleet size, and vehicles/s derives from the same scaling.
func printSweepThroughput(rep *campaign.CampaignReport, fresh bool, elapsed time.Duration) {
	sec := elapsed.Seconds()
	fmt.Printf("\nthroughput: %.0f unique cells/s, %.0f fleet cells/s, %.0f vehicles/s (%s vehicles, %v wall clock)\n",
		float64(rep.Cells/rep.Fleet)/sec, float64(rep.Cells)/sec, float64(rep.Fleet)/sec,
		poolMode(fresh), elapsed.Round(time.Millisecond))
}

// poolMode names the vehicle construction mode for the throughput line.
func poolMode(fresh bool) string {
	if fresh {
		return "fresh"
	}
	return "pooled"
}

// execMode names the executor for the report header: "batched" is the
// default cell-major sweep, "oracle" the -no-batch vehicle-major
// reference. The marker sits in the deterministic body on purpose — the CI
// equivalence smoke strips it (with the throughput line) before diffing a
// cell-major run against a -no-batch run.
func execMode(noBatch bool) string {
	if noBatch {
		return "oracle"
	}
	return "batched"
}

// runRisk executes the risk pipeline: parse the spec, synthesize a campaign
// from its threat model, sweep it across the fleet, and print the
// calibrated rubric-vs-measured profile. The profile itself is
// deterministic; the wall-clock throughput line prints separately.
func runRisk(o *options) error {
	spec, err := loadRiskSpec(o.riskFile)
	if err != nil {
		return err
	}
	if o.listScenarios {
		out, err := risk.Compile(spec)
		if err != nil {
			return err
		}
		fmt.Print(out.Plan.Matrix())
		return nil
	}
	start := time.Now()
	out, err := risk.Run(spec, o.sweep)
	if err != nil {
		if out == nil {
			return err
		}
		// The profile was never calibrated (scoring from a partial sweep
		// would launder incomplete block rates into DREAD deltas); flush the
		// partial campaign evidence instead.
		return flushPartial(o, out.Report, err)
	}
	elapsed := time.Since(start)
	fmt.Printf("mode=%s\n", execMode(o.sweep.NoBatch))
	fmt.Print(report.RiskView(out.Profile))
	printSweepThroughput(out.Report, o.sweep.FreshVehicles, elapsed)
	return nil
}

// runFleet sweeps the Table I matrix across a simulated fleet and prints the
// merged report plus the wall-clock throughput. The report itself stays
// byte-stable for a given config; the timing line is printed separately.
func runFleet(o *options) error {
	ecfg, err := engineConfig(o)
	if err != nil {
		return err
	}
	s := &o.sweep
	start := time.Now()
	fr, err := shard.Run(shard.Config{
		Engine: ecfg, Shards: s.Shards,
		Spawn: s.SpawnShard, Parallelism: s.ShardParallelism,
	})
	if err != nil {
		if fr == nil {
			return err
		}
		fmt.Printf("mode=%s\n", execMode(s.NoBatch))
		fmt.Print(fr)
		return fmt.Errorf("%w: %v", errPartialSweep, err)
	}
	elapsed := time.Since(start)
	fmt.Printf("mode=%s\n", execMode(s.NoBatch))
	fmt.Print(fr)
	fmt.Printf("throughput: %.0f vehicles/s (%s vehicles, %v wall clock)\n",
		float64(s.Fleet)/elapsed.Seconds(), poolMode(s.FreshVehicles), elapsed.Round(time.Millisecond))
	return nil
}

// runLatency executes the E1 experiment matrix: {quiet, flood} x {none, hpe}.
func runLatency() error {
	h, err := attack.NewHarness()
	if err != nil {
		return err
	}
	fmt.Println("E1: per-class delivery latency under a high-priority flood (250 ms horizon)")
	cases := []struct {
		label string
		cfg   attack.LatencyConfig
	}{
		{"quiet bus, no enforcement", attack.LatencyConfig{Enforce: attack.EnforceNone}},
		{"flooded bus, no enforcement", attack.LatencyConfig{Enforce: attack.EnforceNone, Flood: true}},
		{"flooded bus, HPE deployed", attack.LatencyConfig{Enforce: attack.EnforceHPE, Flood: true}},
	}
	for _, cs := range cases {
		stats, err := h.MeasureLatency(cs.cfg)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s:\n", cs.label)
		for _, s := range stats {
			fmt.Println("  ", s)
		}
	}
	return nil
}

func printHPEView() error {
	h, err := attack.NewHarness()
	if err != nil {
		return err
	}
	c := car.MustNew(car.Config{})
	engines, err := hpe.Deploy(c.Bus(), h.Compiled, c, h.Cycles, car.AllNodes...)
	if err != nil {
		return err
	}
	fmt.Print(report.HPEView(engines[car.NodeEVECU], h.Compiled, car.ModeNormal))
	return nil
}

func parseRegimes(s string) ([]attack.Enforcement, error) {
	var out []attack.Enforcement
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "none":
			out = append(out, attack.EnforceNone)
		case "software":
			out = append(out, attack.EnforceSoftware)
		case "hpe":
			out = append(out, attack.EnforceHPE)
		case "":
		default:
			return nil, fmt.Errorf("unknown enforcement regime %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no enforcement regimes selected")
	}
	return out, nil
}

func runAttacks(sel, enforcement string, trace bool, backend string) error {
	regimes, err := parseRegimes(enforcement)
	if err != nil {
		return err
	}
	h, err := attack.NewHarnessBackend(backend)
	if err != nil {
		return err
	}
	var scenarios []attack.Scenario
	if sel == "all" {
		scenarios = attack.Scenarios()
	} else {
		sc, ok := attack.ScenarioFor(sel)
		if !ok {
			return fmt.Errorf("unknown threat id %q (try \"all\")", sel)
		}
		scenarios = []attack.Scenario{sc}
	}

	results, err := h.RunAll(scenarios, regimes...)
	if err != nil {
		return err
	}
	fmt.Printf("Attack matrix: %d scenario(s) x %d regime(s)\n\n", len(scenarios), len(regimes))
	fmt.Print(report.AttackResults(results))
	fmt.Println()
	for _, r := range results {
		fmt.Println(" ", r)
	}
	if trace {
		fmt.Println("\nBus trace of the first scenario under the last regime:")
		return traceOne(scenarios[0], regimes[len(regimes)-1], h)
	}
	return nil
}

// traceOne reruns a single scenario with a tracer attached, printing every
// bus event.
func traceOne(sc attack.Scenario, enf attack.Enforcement, h *attack.Harness) error {
	c := car.MustNew(car.Config{})
	c.Bus().SetTracer(func(e canbus.TraceEvent) { fmt.Println("   ", e) })
	if enf == attack.EnforceHPE {
		if _, err := h.DeployEngines(c.Bus(), c, car.AllNodes...); err != nil {
			return err
		}
	}
	if sc.Setup != nil {
		if err := sc.Setup(c); err != nil {
			return err
		}
		c.Scheduler().Run()
	}
	c.SetMode(sc.Mode)
	var attacker *canbus.Node
	switch sc.Placement {
	case attack.Inside:
		n, ok := c.Node(sc.Attacker)
		if !ok {
			return fmt.Errorf("unknown node %q", sc.Attacker)
		}
		n.Controller().CompromiseFilters()
		attacker = n
	case attack.Outside:
		n, err := c.Bus().Attach(sc.Attacker)
		if err != nil {
			return err
		}
		attacker = n
	}
	for _, inj := range sc.Injections {
		f, err := canbus.NewDataFrame(inj.ID, inj.Data)
		if err != nil {
			return err
		}
		n := inj.Repeat
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			_ = attacker.Send(f)
		}
	}
	c.Scheduler().Run()
	fmt.Printf("    outcome: succeeded=%v\n", sc.Succeeded(c.State()))
	return nil
}
