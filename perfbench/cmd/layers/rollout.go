package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/car"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/risk"
	"repro/internal/rollout"
	"repro/internal/threatmodel"
	"repro/perfbench/gen"
)

// rolloutInput is one policy rollout, as cmd/rollout runs it.
type rolloutInput struct {
	vehicles int
	cand     gen.Candidate
	root     uint64
}

// verifyReps is how often the bundle signature check is timed per op.
const verifyReps = 20

// tracedRollout runs the policy write path — the gate's risk pipeline,
// candidate compile, bundle verify and a staged rollout whose every
// vehicle Apply is timed — and records the readings in s. main says the
// rollout is the workload's op (the go.* metrics then cover it).
func tracedRollout(t *tracer, in rolloutInput, s sample, main bool) error {
	// The gate's risk pipeline, on a cohort-sized fleet.
	spec := &risk.Spec{Model: "connected-car", Seed: in.root}
	var a *threatmodel.Analysis
	var cs *campaign.Spec
	start := time.Now()
	err := t.do("risk.synthesize", func() (err error) {
		if a, err = risk.Analysis(spec.Model); err != nil {
			return err
		}
		cs, err = risk.Synthesize(a, risk.SynthesisConfig{Seed: spec.Seed})
		return err
	})
	if err != nil {
		return err
	}
	s["risk.synthesize_ms"] = ms(time.Since(start))
	var rep *campaign.CampaignReport
	start = time.Now()
	err = t.do("risk.sweep", func() error {
		plan, err := (campaign.Compiler{}).Compile(cs)
		if err != nil {
			return err
		}
		rep, err = campaign.Sweep(plan, campaign.SweepConfig{Fleet: max(in.vehicles/2, 1), RootSeed: in.root})
		return err
	})
	if err != nil {
		return err
	}
	s["risk.sweep_ms"] = ms(time.Since(start))
	start = time.Now()
	if err := t.do("risk.calibrate", func() error { _, err := risk.Calibrate(a, rep); return err }); err != nil {
		return err
	}
	s["risk.calibrate_ms"] = ms(time.Since(start))

	// The fleet's current set and the candidate, signed by the same fixed
	// OEM identity cmd/rollout uses.
	analysis, err := car.Analyze()
	if err != nil {
		return err
	}
	current, err := threatmodel.DerivePolicies(analysis, "table-i", 1)
	if err != nil {
		return err
	}
	candidate, err := policy.Parse(in.cand.Source)
	if err != nil {
		return err
	}
	opts := policy.CompileOptions{Subjects: car.AllNodes, Modes: car.AllModes}
	start = time.Now()
	if err := t.do("policy.compile", func() error { _, err := policy.Compile(candidate, opts); return err }); err != nil {
		return err
	}
	s["policy.compile_ms"] = ms(time.Since(start))
	oem, err := core.NewOEM(bytes.NewReader(bytes.Repeat([]byte{0x42}, 64)))
	if err != nil {
		return err
	}
	bundle, err := oem.Issue(candidate)
	if err != nil {
		return err
	}
	start = time.Now()
	if err := t.do("policy.verify", func() error {
		for k := 0; k < verifyReps; k++ {
			if _, err := bundle.Verify(oem.PublicKey()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s["policy.verify_us"] = float64(time.Since(start)) / 1e3 / verifyReps

	vehicles, applies, err := timedFleet(oem, current, opts, in.vehicles)
	if err != nil {
		return err
	}
	var before goStats
	if main {
		before = readGo()
	}
	var out *rollout.Outcome
	id := t.begin("rollout.run")
	start = time.Now()
	out, err = rollout.Run(rollout.Config{
		OEM: oem, Current: current, Candidate: candidate, Vehicles: vehicles,
		RootSeed: in.root, Telemetry: io.Discard,
		GateSpec: &risk.Spec{Model: "connected-car", Seed: in.root},
	})
	runDur := time.Since(start)
	for _, ap := range applies.spans {
		t.record("policy.apply", id, ap[0], ap[1])
	}
	t.end(id)
	if err != nil {
		return err
	}
	if main {
		goDelta(s, before)
	}
	var applyDur time.Duration
	for _, ap := range applies.spans {
		applyDur += ap[1].Sub(ap[0])
	}
	s["rollout.run_ms"] = ms(runDur)
	s["rollout.apply_share"] = applyDur.Seconds() / runDur.Seconds()
	s["policy.apply_calls"] = float64(len(applies.spans))
	s["policy.apply_ms"] = ms(applyDur) / float64(len(applies.spans))

	if out.RolledBack != in.cand.Flawed {
		return fmt.Errorf("rolled back = %v for a candidate with flawed = %v", out.RolledBack, in.cand.Flawed)
	}
	if !strings.Contains(out.String(), "\n"+in.cand.Verdict()+"\n") {
		return errors.New("transcript lacks verdict " + in.cand.Verdict())
	}
	return nil
}

// applyLog collects the start and end of every vehicle Apply; fleet
// rollouts apply on several goroutines at once.
type applyLog struct {
	mu    sync.Mutex
	spans [][2]time.Time
}

// timedFleet provisions n vehicles on the current set, as cmd/rollout
// does, with every later Apply timed into the returned log.
func timedFleet(oem *core.OEM, current *policy.Set, opts policy.CompileOptions, n int) ([]fleet.Vehicle, *applyLog, error) {
	base, err := oem.Issue(current)
	if err != nil {
		return nil, nil, err
	}
	log := &applyLog{}
	out := make([]fleet.Vehicle, n)
	for i := range out {
		store := policy.NewStore(oem.PublicKey(), opts)
		if _, err := store.Apply(base); err != nil {
			return nil, nil, fmt.Errorf("provisioning vehicle %d: %w", i, err)
		}
		out[i] = fleet.VehicleFunc{
			VID: fmt.Sprintf("VIN-%06d", i),
			Fn: func(b *policy.Bundle) error {
				start := time.Now()
				var err error
				if cur := store.CurrentSet(); cur == nil || cur.Version < b.Version {
					_, err = store.Apply(b)
				}
				end := time.Now()
				log.mu.Lock()
				log.spans = append(log.spans, [2]time.Time{start, end})
				log.mu.Unlock()
				return err
			},
		}
	}
	return out, log, nil
}
