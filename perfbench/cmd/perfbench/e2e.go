package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/perfbench/bench"
	"repro/perfbench/gen"
)

// Workload sizes.
const (
	distinctFleet   = 100
	replayFleet     = 100_000
	rolloutVehicles = 300
	// A run repeats its set-up at least setupReps times and until
	// setupSpan has passed (at most maxSetupReps times); setup_s is the
	// median. Quick set-ups repeat more, which steadies their median.
	setupReps    = 5
	setupSpan    = 2 * time.Second
	maxSetupReps = 25
	// crossCheckEvery samples campaign-distinct ops for the -workers 1
	// cross-check.
	crossCheckEvery = 20
)

// DefaultSeed is the seed whose report digests are pinned.
const DefaultSeed = 1

// pins are sha256 digests of the deterministic output (mode=/throughput:
// lines stripped) of the set-up ops at DefaultSeed. The fleet workloads
// print one report for every op; shard-exec must match fleet-replay's.
var pins = map[string]map[int]string{
	"campaign-distinct": {
		0: "3674a7ac9a5741883bf7954c2e8257118e4f8b5391c4eb8f775adb4616f98283",
		1: "8ba554158b7f1b2122f81c3d2c15322e874f060b139f6c5c66fb72e986efb4af",
		2: "0ac8fdca2fcd8b5050d3eee8fb8834a5c7fcba57fe80e8693537a4a68f8bf37f",
		3: "5f7bff4fcfc253bae7d7ca259345a3f0c2b6d5df33f5035c2e42783f1340878d",
		4: "1571d4dfc07087a613f692cc3ebac7ed4c83f1d7244422287e20a1b0029b1eef",
	},
	"fleet-replay": {0: quickstartDigest},
	"shard-exec":   {0: quickstartDigest},
	"policy-rollout": {
		0: "56eeee91254cfe7bb6c5dc7b448dde244807cb57b402b1299a291a89516ccc3c",
		1: "78d2a57692a74e04f9bf9f7fa293a5c153139c4c9841ff09cd409ebcdaca84d5",
		2: "56eeee91254cfe7bb6c5dc7b448dde244807cb57b402b1299a291a89516ccc3c",
		3: "6fb633b9d7fd6f1d277941f9a2957808a5398afd1f6aab5cb61b5e4cf4fd0e2a",
		4: "1fd013700a587d1619f8a18884e1cd99bbd66b12e02a13cd7e8b3b8078c17d3a",
	},
}

const quickstartDigest = "9a5f2c25c3737dc6296cb00cbbc77cf516a35bc0ac82319aa9e8c94a6b6745b4"

// op is one subprocess invocation and the checks its outcome must pass.
type op struct {
	exe      string
	args     []string
	cells    float64 // distinct (scenario, regime) cells the op sweeps
	vehicles float64 // fleet or rollout vehicles the op covers
	check    func(r *outcome) error
}

// outcome is what one op did.
type outcome struct {
	wall   time.Duration
	cpu    time.Duration // user+system of the op's process tree
	rssMB  float64       // peak RSS of the op's processes
	code   int
	stdout []byte
}

// exec runs the op to completion; its standard error is discarded. A
// non-zero exit is an outcome, not an error; an error means the process
// could not run at all.
func (o *op) exec() (*outcome, error) {
	var out bytes.Buffer
	cmd := exec.Command(o.exe, o.args...)
	cmd.Stdout = &out
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return nil, err
	}
	r := &outcome{wall: wall, code: cmd.ProcessState.ExitCode(), stdout: out.Bytes()}
	// wait4 reports the child's usage plus that of every descendant it
	// reaped, and the largest RSS among them.
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
		r.rssMB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// workload makes op number i of one workload; the first ops are the
// untimed set-up ops. finish runs the checks that need the whole run and
// returns the indices of ops they failed.
type workload struct {
	prepare func(i int) (*op, error)
	finish  func() ([]int, error)
}

// runner accumulates one run's ops.
type runner struct {
	name      string
	seed      uint64
	attempted int
	failed    map[int]bool
}

func (r *runner) fail(i int, err error) {
	if !r.failed[i] {
		r.failed[i] = true
		fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
	}
}

// run prepares, executes and checks op i. busy is the time spent making
// the op's inputs and running it; the checks are not part of it.
func (r *runner) run(w *workload, i int) (o *op, res *outcome, busy time.Duration, err error) {
	start := time.Now()
	if o, err = w.prepare(i); err != nil {
		return nil, nil, 0, err
	}
	if res, err = o.exec(); err != nil {
		return nil, nil, 0, err
	}
	busy = time.Since(start)
	r.attempted++
	if err := o.check(res); err != nil {
		r.fail(i, err)
	}
	return o, res, busy, nil
}

// checkPin compares op i's deterministic output with its pinned digest.
// The first setupReps ops of a DefaultSeed run are pinned.
func (r *runner) checkPin(i int, body []byte) error {
	if r.seed != DefaultSeed || i >= setupReps {
		return nil
	}
	d := digest(body)
	want, ok := pins[r.name][i]
	if !ok {
		fmt.Fprintf(os.Stderr, "op %d digest %s (not pinned)\n", i, d)
		return nil
	}
	if d != want {
		return fmt.Errorf("%w: digest %s, pinned %s", errCheck, d, want)
	}
	return nil
}

func runWorkload(e *env, name string, seed uint64, seconds int) (bench.Result, error) {
	r := &runner{name: name, seed: seed, failed: map[int]bool{}}
	w, err := newWorkload(e, r, name)
	if err != nil {
		return bench.Result{}, err
	}

	var setups []float64
	setupStart := time.Now()
	for len(setups) < setupReps || (time.Since(setupStart) < setupSpan && len(setups) < maxSetupReps) {
		_, _, busy, err := r.run(w, len(setups))
		if err != nil {
			return bench.Result{}, err
		}
		setups = append(setups, busy.Seconds())
	}

	var wall, cells, vehicles, cpu, rss []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	// Past the deadline the loop keeps going until the tail percentile is
	// defined, but never beyond this cap.
	hardStop := time.Now().Add(time.Duration(3*seconds)*time.Second + 30*time.Second)
	for i := len(setups); ; i++ {
		now := time.Now()
		if (now.After(deadline) && len(wall) >= bench.MinTailSamples) || now.After(hardStop) {
			break
		}
		o, res, _, err := r.run(w, i)
		if err != nil {
			return bench.Result{}, err
		}
		s := res.wall.Seconds()
		wall = append(wall, s*1e3)
		cells = append(cells, o.cells/s)
		vehicles = append(vehicles, o.vehicles/s)
		cpu = append(cpu, float64(res.cpu)/1e6)
		rss = append(rss, res.rssMB)
	}
	if w.finish != nil {
		bad, err := w.finish()
		if err != nil {
			return bench.Result{}, err
		}
		for _, i := range bad {
			r.fail(i, fmt.Errorf("%w: -workers 1 cross-check differs", errCheck))
		}
	}

	m := map[string]bench.Value{}
	set := func(k string, v float64) { bench.Set(m, bench.EndToEnd, k, v) }
	set("setup_s", bench.Median(setups))
	set("op_p50_ms", bench.Median(wall))
	tail, pct, ok := bench.Tail(wall)
	if !ok {
		// The hard stop cut the run short: fall back to the slowest op.
		tail, pct = slices.Max(wall), 100
	}
	fmt.Printf("op_tail_ms is p%.1f of %d timed ops\n", pct, len(wall))
	set("op_tail_ms", tail)
	set("unique_cells_per_s", bench.Median(cells))
	set("vehicles_per_s", bench.Median(vehicles))
	set("cpu_ms_per_op", bench.Median(cpu))
	// RSS comes in whole pages, so the median of a quick op's peaks is
	// often the same page count run after run; the mean keeps the spread.
	set("peak_rss_mb", mean(rss))
	failed := len(r.failed)
	fmt.Printf("ops_failed_frac %.6g (%d of %d ops)\n", float64(failed)/float64(r.attempted), failed, r.attempted)
	return bench.Result{Correct: failed == 0, Attempted: r.attempted, Failed: failed, Metrics: m}, nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

var headerRE = regexp.MustCompile(`(?m)^(\d+) scenarios/vehicle, (\d+) cells swept`)

// cellsPerVehicle reads a campaign report header's per-vehicle cell count.
func cellsPerVehicle(out []byte, fleet int) (int, error) {
	m := headerRE.FindSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("%w: no campaign header in report", errCheck)
	}
	total, _ := strconv.Atoi(string(m[2]))
	return total / fleet, nil
}

func exitCheck(r *outcome, want int) error {
	if r.code != want {
		return fmt.Errorf("%w: exit code %d, want %d", errCheck, r.code, want)
	}
	return nil
}

func newWorkload(e *env, r *runner, name string) (*workload, error) {
	in := filepath.Join(e.tmp, "in")
	if err := os.MkdirAll(in, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case "campaign-distinct":
		return campaignDistinct(e, r, in), nil
	case "fleet-replay":
		return fleetReplay(e, r, in, false), nil
	case "shard-exec":
		return fleetReplay(e, r, in, true), nil
	case "policy-rollout":
		return policyRollout(e, r, in), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// campaignDistinct sweeps a freshly generated ~10⁴-cell campaign per op.
func campaignDistinct(e *env, r *runner, in string) *workload {
	bodies := map[int][]byte{} // sampled ops' output, for the cross-check
	args := func(i int, workers int) []string {
		return []string{
			"-campaign", filepath.Join(in, fmt.Sprintf("distinct-%d.campaign", i)),
			"-fleet", strconv.Itoa(distinctFleet), "-workers", strconv.Itoa(workers),
			"-seed", strconv.FormatUint(gen.RootSeed(r.seed, i), 10),
		}
	}
	return &workload{
		prepare: func(i int) (*op, error) {
			path := filepath.Join(in, fmt.Sprintf("distinct-%d.campaign", i))
			if err := os.WriteFile(path, []byte(gen.CampaignDistinct(r.seed, i)), 0o644); err != nil {
				return nil, err
			}
			return &op{
				exe: e.carsim, args: args(i, 2),
				cells: gen.DistinctCells, vehicles: distinctFleet,
				check: func(res *outcome) error {
					if err := exitCheck(res, 0); err != nil {
						return err
					}
					n, err := cellsPerVehicle(res.stdout, distinctFleet)
					if err != nil {
						return err
					}
					if n != gen.DistinctCells {
						return fmt.Errorf("%w: %d cells/vehicle, generator made %d", errCheck, n, gen.DistinctCells)
					}
					body := stripTimings(res.stdout)
					if i%crossCheckEvery == 0 {
						bodies[i] = body
					}
					return r.checkPin(i, body)
				},
			}, nil
		},
		finish: func() ([]int, error) {
			var bad []int
			for i, body := range bodies {
				o := &op{exe: e.carsim, args: args(i, 1)}
				res, err := o.exec()
				if err != nil {
					return nil, err
				}
				if res.code != 0 || !bytes.Equal(stripTimings(res.stdout), body) {
					bad = append(bad, i)
				}
			}
			return bad, nil
		},
	}
}

// fleetReplay sweeps the quickstart campaign at fleet 10⁵, in process or,
// with sharded, as four subprocess shards. Every op of a run has the same
// input, so every op must print the same report; shard-exec's must also
// equal an in-process run's byte for byte.
func fleetReplay(e *env, r *runner, in string, sharded bool) *workload {
	spec := filepath.Join(in, "quickstart.campaign")
	args := []string{"-campaign", spec, "-fleet", strconv.Itoa(replayFleet),
		"-seed", strconv.FormatUint(gen.RootSeed(r.seed, 0), 10)}
	inProcess := &op{exe: e.carsim, args: args}
	if sharded {
		args = append(args[:len(args):len(args)], "-shards", "4", "-shard-exec", "-shard-parallelism", "2", "-workers", "1")
	}
	var want []byte // the deterministic report every op must print
	return &workload{prepare: func(i int) (*op, error) {
		if err := os.WriteFile(spec, []byte(gen.Quickstart), 0o644); err != nil {
			return nil, err
		}
		return &op{
			exe: e.carsim, args: args,
			cells: gen.QuickstartCellsPerVehicle, vehicles: replayFleet,
			check: func(res *outcome) error {
				if err := exitCheck(res, 0); err != nil {
					return err
				}
				if n, err := cellsPerVehicle(res.stdout, replayFleet); err != nil {
					return err
				} else if n != gen.QuickstartCellsPerVehicle {
					return fmt.Errorf("%w: %d cells/vehicle, want %d", errCheck, n, gen.QuickstartCellsPerVehicle)
				}
				body := stripTimings(res.stdout)
				if want == nil {
					if sharded {
						ref, err := inProcess.exec()
						if err != nil {
							return err
						}
						want = stripTimings(ref.stdout)
					} else {
						want = body
					}
					if err := r.checkPin(0, want); err != nil {
						return err
					}
				}
				if !bytes.Equal(body, want) {
					return fmt.Errorf("%w: report differs from the reference run (%s vs %s)", errCheck, digest(body), digest(want))
				}
				return nil
			},
		}, nil
	}}
}

var gateCellsRE = regexp.MustCompile(`(?m)^campaign .*: \d+ families, \d+ scenarios/vehicle, (\d+) cells/vehicle`)

// policyRollout drives `rollout` with alternating benign and flawed
// generated candidates.
func policyRollout(e *env, r *runner, in string) *workload {
	return &workload{prepare: func(i int) (*op, error) {
		c := gen.RolloutCandidate(r.seed, i)
		root := gen.RootSeed(r.seed, i)
		cand := filepath.Join(in, fmt.Sprintf("candidate-%d.policy", i))
		if err := os.WriteFile(cand, []byte(c.Source), 0o644); err != nil {
			return nil, err
		}
		// The gate sweeps the risk campaign rollout synthesizes from the
		// same spec; its size comes from carsim's listing of that spec.
		gate := filepath.Join(in, fmt.Sprintf("gate-%d.json", i))
		if err := os.WriteFile(gate, []byte(gen.GateSpec(root)), 0o644); err != nil {
			return nil, err
		}
		list, err := exec.Command(e.carsim, "-risk", gate, "-list-scenarios").Output()
		if err != nil {
			return nil, fmt.Errorf("listing the gate campaign: %w", err)
		}
		m := gateCellsRE.FindSubmatch(list)
		if m == nil {
			return nil, fmt.Errorf("no cell count in the gate campaign listing")
		}
		gateCells, _ := strconv.Atoi(string(m[1]))
		return &op{
			exe: e.rollout,
			args: []string{"-vehicles", strconv.Itoa(rolloutVehicles), "-candidate", cand,
				"-seed", strconv.FormatUint(root, 10)},
			// Baseline and candidate gate sweeps cover the gate campaign's
			// cells under two policies.
			cells: 2 * float64(gateCells), vehicles: rolloutVehicles,
			check: func(res *outcome) error {
				if err := exitCheck(res, c.ExitCode()); err != nil {
					return err
				}
				if !bytes.Contains(res.stdout, []byte("\n"+c.Verdict()+"\n")) {
					return fmt.Errorf("%w: transcript lacks verdict %q", errCheck, c.Verdict())
				}
				return r.checkPin(i, res.stdout)
			},
		}, nil
	}}
}

// runSmoke runs every workload's first set-up op and one timed op, with
// every output check, and fails unless all pass.
func runSmoke(e *env, seed uint64) error {
	failed := 0
	for _, name := range bench.Workloads {
		r := &runner{name: name, seed: seed, failed: map[int]bool{}}
		w, err := newWorkload(e, r, name)
		if err != nil {
			return err
		}
		for _, i := range []int{0, setupReps} {
			if _, _, _, err := r.run(w, i); err != nil {
				return err
			}
		}
		if w.finish != nil {
			bad, err := w.finish()
			if err != nil {
				return err
			}
			for _, i := range bad {
				r.fail(i, fmt.Errorf("%w: -workers 1 cross-check differs", errCheck))
			}
		}
		fmt.Printf("smoke %s: %d ops, %d failed\n", name, r.attempted, len(r.failed))
		failed += len(r.failed)
	}
	if failed > 0 {
		return fmt.Errorf("smoke: %d ops failed their output checks", failed)
	}
	return nil
}
