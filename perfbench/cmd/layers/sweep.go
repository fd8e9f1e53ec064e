package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/car"
	"repro/internal/engine"
	"repro/internal/hpe"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/shard"
	"repro/internal/shard/wire"
)

// sweepInput is one campaign sweep: a campaign spec, or a risk spec whose
// synthesized campaign is swept, as carsim -campaign / -risk would run it.
type sweepInput struct {
	mode    string // "campaign" or "risk"
	path    string // spec file, for the shard children
	text    string
	fleet   int
	workers int // 0: GOMAXPROCS
	root    uint64
	carsim  string
}

// tracedSweep runs in through every sweep layer and records the readings
// in s: parse and compile, the harness, per-cell simulation and policy
// decisions, the fleet engine with its merge fold and wire encoder fed from
// the per-vehicle emit hook, the sweep and report carsim makes, and the
// same sweep as subprocess shards. shardMain says the sharded sweep is the
// workload's op, so the go.* metrics cover it instead of the in-process
// one; a risk-mode sweep is a probe and records no go.* metrics.
func tracedSweep(t *tracer, in sweepInput, s sample, shardMain bool) (check error, err error) {
	// A risk spec is first synthesized into a campaign, whose text form is
	// then parsed like any other spec.
	text := in.text
	var rspec *risk.Spec
	if in.mode == "risk" {
		if rspec, err = risk.ParseSpec(in.text); err != nil {
			return nil, err
		}
		var cs *campaign.Spec
		if err := t.do("risk.synthesize", func() error {
			a, err := risk.Analysis(rspec.Model)
			if err != nil {
				return err
			}
			cs, err = risk.Synthesize(a, risk.SynthesisConfig{
				Name: rspec.Name, Seed: rspec.Seed, Regimes: rspec.Regimes, Threats: rspec.Threats,
				Payloads: rspec.Payloads, FloodRate: rspec.FloodRate, FloodFrames: rspec.FloodFrames,
			})
			return err
		}); err != nil {
			return nil, err
		}
		text = cs.String()
	}
	var spec *campaign.Spec
	start := time.Now()
	if err := t.do("campaign.parse", func() (err error) { spec, err = campaign.Parse(text); return }); err != nil {
		return nil, err
	}
	s["campaign.parse_ms"] = ms(time.Since(start))
	var plan *campaign.Plan
	start = time.Now()
	if err := t.do("campaign.compile", func() (err error) { plan, err = (campaign.Compiler{}).Compile(spec); return }); err != nil {
		return nil, err
	}
	s["campaign.compile_ms"] = ms(time.Since(start))
	s["campaign.unique_cells"] = float64(plan.CellsPerVehicle())

	var h *attack.Harness
	start = time.Now()
	if err := t.do("policy.harness_build", func() (err error) { h, err = attack.NewHarnessBackend(""); return }); err != nil {
		return nil, err
	}
	s["policy.harness_build_ms"] = ms(time.Since(start))
	if err := tracedCells(t, h, plan, s); err != nil {
		return nil, err
	}

	scfg := campaign.SweepConfig{Fleet: in.fleet, Workers: in.workers, RootSeed: in.root}
	if in.mode == "risk" {
		if _, scfg, err = risk.SweepSetup(rspec, risk.RunConfig{Fleet: in.fleet, Workers: in.workers, RootSeed: in.root}); err != nil {
			return nil, err
		}
	}
	if check, err = tracedEngine(t, plan, scfg, s); err != nil {
		return nil, err
	}

	// The sweep and report carsim makes, in process and as shard children.
	// Both must render the same report.
	inProcess, err := tracedCLISweep(t, plan, scfg, s, "", !shardMain && in.mode != "risk")
	if err != nil {
		return nil, err
	}
	streams := &shardStreams{}
	scfg.Shards, scfg.ShardParallelism, scfg.SpawnShard = probeShards, probeParallelism, streams.spawn(in)
	// A failed shard is a failed check, not the end of the run.
	sharded, err := tracedCLISweep(t, plan, scfg, s, "shard.run", shardMain)
	if err != nil {
		check = errors.Join(check, err)
	}
	if err := streams.record(t, s); err != nil {
		return nil, err
	}
	if sharded != inProcess {
		check = errors.Join(check, errors.New("subprocess-sharded report differs from the in-process one"))
	}
	return check, nil
}

// tracedCLISweep runs campaign.Sweep and renders its report as carsim
// -campaign does, returning the rendering. span, when set, wraps the
// sweep (shard.run for the sharded sweep). withGo records the go.* metrics
// of the sweep and render.
func tracedCLISweep(t *tracer, plan *campaign.Plan, scfg campaign.SweepConfig, s sample, span string, withGo bool) (string, error) {
	before := readGo()
	id := -1
	if span != "" {
		id = t.begin(span)
	}
	rep, err := campaign.Sweep(plan, scfg)
	t.end(id)
	if err != nil {
		return "", err
	}
	var rendered string
	start := time.Now()
	t.do("report.render", func() error { rendered = report.CampaignView(rep); return nil })
	if span == "" {
		s["report.render_ms"] = ms(time.Since(start))
	}
	if withGo {
		goDelta(s, before)
	}
	return rendered, nil
}

// tracedEngine runs the fleet engine with the merge fold and the wire
// encoder fed from its per-vehicle emit hook, then decodes every encoded
// vehicle. The fold must equal the engine's own merge, and a sample of the
// decoded vehicles must re-encode to the same bytes.
func tracedEngine(t *tracer, plan *campaign.Plan, scfg campaign.SweepConfig, s sample) (check error, err error) {
	ecfg, err := campaign.EngineConfig(plan, scfg)
	if err != nil {
		return nil, err
	}
	fold, err := engine.NewMergeFold(ecfg)
	if err != nil {
		return nil, err
	}
	workers := ecfg.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), ecfg.Fleet)
	}
	var (
		buf              []byte
		ends             []int
		emits            []time.Time
		mergeDur, encDur time.Duration
	)
	ecfg.OnVehicle = func(v *engine.VehicleReport) {
		t0 := time.Now()
		emits = append(emits, t0)
		fold.Add(*v)
		t1 := time.Now()
		buf = wire.AppendVehicle(buf, v)
		t2 := time.Now()
		ends = append(ends, len(buf))
		mergeDur += t1.Sub(t0)
		encDur += t2.Sub(t1)
		t.charge("engine.merge", t1.Sub(t0))
		t.charge("wire.encode", t2.Sub(t1))
	}
	var fr *engine.FleetReport
	start := time.Now()
	if err := t.do("engine.run", func() (err error) { fr, err = engine.Run(ecfg); return }); err != nil {
		return nil, err
	}
	s["engine.run_ms"] = ms(time.Since(start))
	n := len(emits)
	if n <= workers {
		return nil, fmt.Errorf("engine emitted %d vehicles, need more than %d workers", n, workers)
	}
	s["engine.first_vehicles_ms"] = ms(emits[workers-1].Sub(start))
	s["engine.later_vehicle_ns"] = float64(emits[n-1].Sub(emits[workers-1])) / float64(n-workers)
	var folded *engine.FleetReport
	finish := time.Now()
	t.do("engine.merge_finish", func() error { folded = fold.Finish(); return nil })
	mergeDur += time.Since(finish)
	s["engine.merge_ns_per_vehicle"] = float64(mergeDur) / float64(n)
	if !reflect.DeepEqual(folded, fr) {
		check = errors.New("merge fold differs from the engine's own merge")
	}

	s["wire.bytes_per_vehicle"] = float64(len(buf)) / float64(n)
	s["wire.encode_ns_per_vehicle"] = float64(encDur) / float64(n)
	var decDur time.Duration
	var decoded []*engine.VehicleReport
	if err := t.do("wire.decode", func() error {
		lo := 0
		for k, hi := range ends {
			t0 := time.Now()
			v, err := wire.DecodeVehiclePayload(buf[lo:hi])
			decDur += time.Since(t0)
			if err != nil {
				return err
			}
			if k%roundTripEvery == 0 {
				decoded = append(decoded, v)
			}
			lo = hi
		}
		return nil
	}); err != nil {
		return nil, err
	}
	s["wire.decode_ns_per_vehicle"] = float64(decDur) / float64(n)
	for j, v := range decoded {
		k := j * roundTripEvery
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		if !bytes.Equal(wire.AppendVehicle(nil, v), buf[lo:ends[k]]) {
			check = errors.Join(check, fmt.Errorf("wire payload of vehicle %d does not round-trip", k))
			break
		}
	}
	return check, nil
}

// roundTripEvery samples the vehicles whose decoded payload is re-encoded.
const roundTripEvery = 64

// tracedCells runs every cell of plan once on a pooled arena, counting
// scheduler events and delivered frames, then times the policy engine's
// decision over the frames the plan injects.
func tracedCells(t *tracer, h *attack.Harness, plan *campaign.Plan, s sample) error {
	var a *attack.Arena
	start := time.Now()
	if err := t.do("attack.arena_build", func() (err error) { a, err = h.NewArena(); return }); err != nil {
		return err
	}
	s["attack.arena_build_ms"] = ms(time.Since(start))

	var cells, events, frames float64
	var simDur time.Duration
	var mix []canbus.Frame
	var subjects []string
	err := t.do("attack.cells", func() error {
		for _, f := range plan.Families {
			for _, sc := range f.Scenarios {
				for _, inj := range sc.Injections {
					if fr, err := canbus.NewDataFrame(inj.ID, inj.Data); err == nil {
						mix = append(mix, fr)
						subjects = append(subjects, sc.Attacker)
					}
				}
				for _, enf := range f.Regimes {
					t0 := time.Now()
					if _, err := a.Run(sc, enf); err != nil {
						return err
					}
					simDur += time.Since(t0)
					// Run resets the car first, so the counters read after it
					// are this cell's own.
					events += float64(a.Car().Scheduler().Steps())
					frames += float64(a.Car().Bus().Stats().FramesDelivered)
					cells++
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s["attack.cell_us"] = float64(simDur) / 1e3 / cells
	s["sim.events_per_cell"] = events / cells
	s["sim.events_per_s"] = events / simDur.Seconds()
	s["canbus.frames_per_cell"] = frames / cells
	s["canbus.frames_per_s"] = frames / simDur.Seconds()

	// One engine per station, as hpe.Deploy builds them. A frame is judged
	// on its attacker's write path; a rogue node has no engine, so its
	// frames are judged on the EV-ECU's read path.
	engines := map[string]*hpe.Engine{}
	for _, node := range car.AllNodes {
		e := hpe.New(node, hpe.FixedMode(car.ModeNormal), h.Cycles)
		if err := e.Install(h.Compiled); err != nil {
			return err
		}
		engines[node] = e
	}
	type decision struct {
		e   *hpe.Engine
		dir canbus.Direction
	}
	judge := make([]decision, len(mix))
	for j, subject := range subjects {
		if e, ok := engines[subject]; ok {
			judge[j] = decision{e, canbus.Write}
		} else {
			judge[j] = decision{engines[car.NodeEVECU], canbus.Read}
		}
	}
	const decisions = 200_000
	var verdicts int
	start = time.Now()
	t.do("hpe.decide", func() error {
		for k := 0; k < decisions; k++ {
			j := k % len(mix)
			verdicts += int(judge[j].e.Decide(judge[j].dir, mix[j]))
		}
		return nil
	})
	s["hpe.decide_ns"] = float64(time.Since(start)) / decisions
	return nil
}

// timedStream wraps a shard child's stream, timing its first vehicle and
// its trailer from the spawn.
type timedStream struct {
	shard.Stream
	spawned      time.Time
	first, trail time.Time
	failed       bool
}

func (ts *timedStream) Next() (*engine.VehicleReport, error) {
	v, err := ts.Stream.Next()
	if ts.first.IsZero() {
		ts.first = time.Now()
	}
	return v, err
}

func (ts *timedStream) Trailer() (shard.Range, string, error) {
	r, errText, err := ts.Stream.Trailer()
	ts.trail = time.Now()
	ts.failed = errText != "" || err != nil
	return r, errText, err
}

// shardStreams spawns carsim shard children, exactly as carsim -shards 4
// -shard-exec -shard-parallelism 2 -workers 1 does, and keeps their timed
// streams.
type shardStreams struct {
	mu      sync.Mutex
	streams []*timedStream
}

func (ss *shardStreams) spawn(in sweepInput) shard.Spawn {
	return func(r shard.Range) (shard.Stream, error) {
		cmd := exec.Command(in.carsim, "-shard-range", r.String(), "-shard-wire", "binary",
			"-fleet", strconv.Itoa(in.fleet), "-workers", "1",
			"-seed", strconv.FormatUint(in.root, 10), "-"+in.mode, in.path)
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		ts := &timedStream{spawned: time.Now()}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("shard %s: %w", r, err)
		}
		ts.Stream = shard.NewWireStream(pipe, func() error {
			pipe.Close()
			return cmd.Wait()
		})
		ss.mu.Lock()
		ss.streams = append(ss.streams, ts)
		ss.mu.Unlock()
		return ts, nil
	}
}

// record books the children's timings: each child's lifetime becomes a
// span under the last shard.run, which marks the part of it the
// subprocess covers (the child's own time is not shard-layer self time).
func (ss *shardStreams) record(t *tracer, s sample) error {
	parent := -1
	for i := len(t.spans) - 1; i >= 0 && t.on; i-- {
		if t.spans[i].Name == "shard.run" {
			parent = i
			break
		}
	}
	var firsts, lifetimes []time.Duration
	failed := 0
	for _, ts := range ss.streams {
		if ts.failed || ts.trail.IsZero() {
			failed++
			continue
		}
		t.record("subprocess.shard", parent, ts.spawned, ts.trail)
		firsts = append(firsts, ts.first.Sub(ts.spawned))
		lifetimes = append(lifetimes, ts.trail.Sub(ts.spawned))
	}
	s["shard.failed"] = float64(failed)
	if len(lifetimes) == 0 {
		return errors.New("no shard child finished")
	}
	s["shard.first_frame_ms"] = medianOf(firsts)
	s["shard.stream_ms"] = medianOf(lifetimes)
	s["shard.straggler_ratio"] = ms(slices.Max(lifetimes)) / medianOf(lifetimes)
	return nil
}
