// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/carsim and cmd/rollout from the tree under test, then runs them as
// subprocesses one operation ("op") at a time and reports the metrics
// BENCHMARK.json lists. It reaches the program only through those two
// command lines. With -trace 1 it instead builds and runs the traced
// per-layer runner (cmd/layers), which calls the packages in-process.
//
// Run it from the root of a checkout, through run.sh:
//
//	bash perfbench/run.sh --workload fleet-replay --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke
//
// Every metric prints by name with its unit, and the last line of standard
// output is the JSON result. Build products and inputs stay under
// $CARGO_TARGET_DIR (default .bench_build) in the checkout.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/perfbench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 20, "how long the timed loop runs")
	trace := flag.Int("trace", 0, "1: run the traced per-layer runner instead of the end-to-end one")
	smoke := flag.Bool("smoke", false, "run every workload's set-up op and one timed op with all output checks, then exit")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, smoke bool) error {
	if !smoke && !slices.Contains(bench.Workloads, workload) {
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(bench.Workloads, ", "))
	}
	if seconds < 1 && !smoke {
		return fmt.Errorf("-seconds %d (want >= 1)", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d (want 0 or 1)", trace)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	env, err := newEnv(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(env.tmp)

	if err := env.build(); err != nil {
		return err
	}
	printRecord(os.Stdout, root)
	if smoke {
		return runSmoke(env, seed)
	}
	if trace == 1 {
		return env.runTraced(workload, seed)
	}
	res, err := runWorkload(env, workload, seed, seconds)
	if err != nil {
		return err
	}
	return res.Write(os.Stdout, bench.EndToEnd)
}

// env is one benchmark run's build and scratch space.
type env struct {
	root    string // checkout root: the tree under test
	out     string // build dir: $CARGO_TARGET_DIR or .bench_build
	tmp     string // per-run scratch dir under out, removed on exit
	carsim  string
	rollout string
}

func newEnv(root string) (*env, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "carsim")); err != nil {
		return nil, fmt.Errorf("%s is not the root of a checkout: %w", root, err)
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	if err := os.MkdirAll(filepath.Join(out, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		root:    root,
		out:     out,
		tmp:     tmp,
		carsim:  filepath.Join(tmp, "bin", "carsim"),
		rollout: filepath.Join(tmp, "bin", "rollout"),
	}, nil
}

// build compiles the CLIs from the tree under test into this run's scratch
// dir, so a run never reuses a binary built from another tree.
func (e *env) build() error {
	return goBuild(e.root, filepath.Join(e.tmp, "bin")+string(filepath.Separator), "./cmd/carsim", "./cmd/rollout")
}

func goBuild(dir, out string, pkgs ...string) error {
	cmd := exec.Command("go", append([]string{"build", "-buildvcs=false", "-o", out}, pkgs...)...)
	cmd.Dir = dir
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", strings.Join(pkgs, " "), err)
	}
	return nil
}

// runTraced builds the traced per-layer runner and hands the run to it; it
// prints the result line itself.
func (e *env) runTraced(workload string, seed uint64) error {
	layers := filepath.Join(e.tmp, "bin", "layers")
	if err := goBuild(filepath.Join(e.root, "perfbench"), layers, "./cmd/layers"); err != nil {
		return err
	}
	cmd := exec.Command(layers,
		"-workload", workload, "-seed", fmt.Sprint(seed),
		"-carsim", e.carsim, "-tmp", e.tmp,
		"-spans", filepath.Join(e.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	cmd.Dir = e.root
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}

// printRecord writes the run record: toolchain, CPU and the identity of the
// tree under test.
func printRecord(w io.Writer, root string) {
	gomaxprocs := os.Getenv("GOMAXPROCS")
	if gomaxprocs == "" {
		gomaxprocs = fmt.Sprintf("%d (default)", runtime.GOMAXPROCS(0))
	}
	fmt.Fprintf(w, "record go=%s gomaxprocs=%s nproc=%d\n", runtime.Version(), gomaxprocs, runtime.NumCPU())
	fmt.Fprintf(w, "record cpu=%q\n", cpuModel())
	commit := "none (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Fprintf(w, "record commit=%s tree_sha256=%s\n", commit, treeDigest(root))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeDigest hashes the tree under test (every regular file outside .git
// and the build dir), which names the code when the checkout has no
// commit.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || strings.HasPrefix(rel, ".bench_build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stripTimings drops the lines of a carsim report that carry wall-clock
// readings or the executor mode, leaving the deterministic body.
func stripTimings(out []byte) []byte {
	var b bytes.Buffer
	for _, line := range bytes.SplitAfter(out, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("mode=")) || bytes.HasPrefix(line, []byte("throughput:")) {
			continue
		}
		b.Write(line)
	}
	return b.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var errCheck = errors.New("output check failed")
