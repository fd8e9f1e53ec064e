// Package gen makes the benchmark's inputs from the workload seed: the
// distinct campaign specs of campaign-distinct, the candidate policy sets of
// policy-rollout, the gate risk spec and the root seeds handed to the CLIs.
// The same seed always yields byte-identical inputs. The package uses only
// the standard library, so the end-to-end runner that imports it reaches the
// program through its command lines alone.
package gen

import (
	_ "embed"
	"fmt"
	"strings"
)

// Quickstart is the shipped quickstart campaign, pinned as a fixture so the
// fleet-replay and shard-exec workloads cannot shrink with an edit to the
// example.
//
//go:embed fixtures/quickstart.campaign
var Quickstart string

// QuickstartCellsPerVehicle is the quickstart campaign's scenario×regime
// cell count per vehicle.
const QuickstartCellsPerVehicle = 258

// tableI is the Table I policy set every simulated vehicle runs by default
// (the output of `policyc -table-i`). Candidates are derived from it.
//
//go:embed fixtures/table-i.policy
var tableI string

// rng is SplitMix64: tiny, seedable, and stable across Go releases.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// pick returns k distinct elements of pool in pool order.
func (r *rng) pick(pool []string, k int) []string {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	chosen := make([]bool, len(pool))
	for _, i := range idx[:k] {
		chosen[i] = true
	}
	var out []string
	for i, ok := range chosen {
		if ok {
			out = append(out, pool[i])
		}
	}
	return out
}

// stream derives an independent generator for one (seed, purpose, op).
func stream(seed uint64, purpose string, op int) *rng {
	r := &rng{s: seed}
	for _, c := range purpose {
		r.s ^= uint64(c)
		r.next()
	}
	r.s ^= uint64(op) * 0xD6E8FEB86659FD93
	r.next()
	return r
}

// RootSeed is the -seed flag of op number op. Workloads that share their
// input across ops pass op 0 every time.
func RootSeed(seed uint64, op int) uint64 {
	return stream(seed, "root", op).next()%1_000_000_007 + 1
}

var (
	insideNodes = []string{"Infotainment", "Telematics", "Sensors", "Diagnostics", "DoorLocks", "SafetyCritical"}
	modes       = []string{"Normal", "RemoteDiag", "FailSafe"}
	gaps        = []string{"250us", "500us", "1ms", "2ms", "4ms"}
	floodRates  = []string{"100us", "150us", "250us", "400us", "1ms"}
	// floodIDs are identifiers with an approved writer, so the identifier
	// HPE passes the flood and only the behaviour regime can cap it.
	floodIDs = []string{"0x100", "0x110", "0x210", "0x300"}
	stageIDs = []string{"0x10", "0x20", "0x30"}
)

// Shape of one campaign-distinct spec. Every spec has exactly these sizes,
// so ops differ in content but not in amount of work.
const (
	mutatePick     = 4600 // of 16 baselines × 5 attackers × 2 placements × 3 modes × 3 payloads × 2 repeats × 2 gaps = 5760
	floodFamilies  = 2
	floodTeams     = 4
	floodRateCount = 4
	floodFrames    = 3
	stagedFamilies = 3
	stagedAttack   = 4
	stagedModes    = 2
)

// DistinctMutateCells, DistinctFloodCells and DistinctStagedCells are the
// per-vehicle cell counts of every campaign-distinct spec, by family kind.
const (
	DistinctMutateCells = mutatePick * 2
	DistinctFloodCells  = floodFamilies * floodTeams * floodRateCount * floodFrames * 3
	DistinctStagedCells = stagedFamilies * stagedAttack * 2 * stagedModes * 2
	DistinctCells       = DistinctMutateCells + DistinctFloodCells + DistinctStagedCells
)

// CampaignDistinct is the campaign spec of campaign-distinct op number op:
// a mutate family (high prefix sharing), flood families and staged families
// whose axes and family seeds are drawn from (seed, op), so no two ops sweep
// the same cells.
func CampaignDistinct(seed uint64, op int) string {
	r := stream(seed, "campaign-distinct", op)
	var b strings.Builder
	fmt.Fprintf(&b, "campaign \"distinct-%d-%d\" version 1 {\n", seed, op)
	fmt.Fprintf(&b, "  seed %d\n  regimes none, hpe\n", r.next()>>1)

	payloads := make([]string, 3)
	for i := range payloads {
		payloads[i] = fmt.Sprintf("%02X%02X", r.intn(256), r.intn(256))
	}
	fmt.Fprintf(&b, "  mutate \"mutate\" {\n    probe off\n    attackers %s\n    placements inside, outside\n    modes %s\n    payloads %s\n    repeats %d, %d\n    gaps %s\n    pick %d\n  }\n",
		strings.Join(r.pick(insideNodes, 5), ", "), strings.Join(modes, ", "),
		strings.Join(payloads, ", "), 1+r.intn(3), 4+r.intn(5),
		strings.Join(r.pick(gaps, 2), ", "), mutatePick)

	for f := 0; f < floodFamilies; f++ {
		fmt.Fprintf(&b, "  flood \"flood-%d\" {\n    regimes none, hpe, behaviour\n    id %s\n    payload %02X%02X\n",
			f, floodIDs[r.intn(len(floodIDs))], r.intn(256), r.intn(256))
		for t := 0; t < floodTeams; t++ {
			// Team sizes 1, 2, 3 and a rogue-led pair keep the teams distinct.
			team := r.pick(insideNodes, t+1)
			if t == floodTeams-1 {
				team = append([]string{"Rogue-Flooder"}, r.pick(insideNodes, 1)...)
			}
			fmt.Fprintf(&b, "    team %s\n", strings.Join(team, ", "))
		}
		frames := []string{fmt.Sprint(10 + r.intn(10)), fmt.Sprint(20 + r.intn(10)), fmt.Sprint(30 + r.intn(20))}
		fmt.Fprintf(&b, "    rates %s\n    frames %s\n    threshold %d\n  }\n",
			strings.Join(r.pick(floodRates, floodRateCount), ", "), strings.Join(frames, ", "), 8+r.intn(9))
	}

	for s := 0; s < stagedFamilies; s++ {
		fmt.Fprintf(&b, "  staged \"staged-%d\" {\n    goal firmware-modified\n    attackers %s\n    placements inside, outside\n    modes %s\n",
			s, strings.Join(r.pick(insideNodes, stagedAttack), ", "), strings.Join(r.pick(modes, stagedModes), ", "))
		fmt.Fprintf(&b, "    stage \"inject\" {\n      inject %s 01 x %d\n    }\n", stageIDs[r.intn(len(stageIDs))], 1+r.intn(4))
		fmt.Fprintf(&b, "    stage \"persist\" {\n      proceed propulsion-off\n      inject 0x600 %02X%02X x %d every %s\n    }\n  }\n",
			r.intn(256), r.intn(256), 1+r.intn(3), gaps[r.intn(len(gaps))])
	}
	b.WriteString("}\n")
	return b.String()
}

// holeIDs are Table I attack identifiers; a blanket allow on any of them
// lets a defended attack through, so the rollout gate must measure a
// residual-risk regression and roll back.
var holeIDs = []uint32{0x10, 0x20, 0x30, 0x200, 0x300, 0x310, 0x500, 0x600}

// Candidate is one policy-rollout candidate set.
type Candidate struct {
	// Source is the policy DSL text handed to `rollout -candidate`.
	Source string
	// Version is the candidate's policy version (above the fleet's v1).
	Version uint64
	// Flawed marks a candidate with a semantic hole: the rollout must roll
	// back (exit 2). A benign candidate must advance (exit 0).
	Flawed bool
}

// RolloutCandidate is the candidate of policy-rollout op number op. Even
// ops get a benign re-issue of the Table I set (rules shuffled, some
// duplicated under new labels: no semantic change); odd ops add a seeded
// blanket allow over an attacked identifier.
func RolloutCandidate(seed uint64, op int) Candidate {
	r := stream(seed, "policy-rollout", op)
	var rules []string
	for _, line := range strings.Split(tableI, "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "allow ") {
			rules = append(rules, t)
		}
	}
	for i := len(rules) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		rules[i], rules[j] = rules[j], rules[i]
	}
	for i, n := 0, 1+r.intn(8); i < n; i++ {
		dup := rules[r.intn(len(rules))]
		if k := strings.Index(dup, " as "); k >= 0 {
			dup = dup[:k]
		}
		rules = append(rules, fmt.Sprintf("%s as \"reissue-%d\"", dup, i))
	}
	c := Candidate{Version: 2 + uint64(r.intn(40)), Flawed: op%2 == 1}
	if c.Flawed {
		id := holeIDs[r.intn(len(holeIDs))]
		rules = append(rules, fmt.Sprintf("allow readwrite 0x%X..0x%X at * as \"overbroad-%d\"", id, id+uint32(r.intn(4)), op))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "policy \"table-i\" version %d {\n  default deny\n", c.Version)
	for _, rule := range rules {
		b.WriteString("  " + rule + "\n")
	}
	b.WriteString("}\n")
	c.Source = b.String()
	return c
}

// Verdict is the transcript line the rollout CLI must print for c.
func (c Candidate) Verdict() string {
	if c.Flawed {
		return fmt.Sprintf("ROLLED BACK to prior set as v%d", c.Version+1)
	}
	return fmt.Sprintf("advanced: fleet now runs v%d", c.Version)
}

// ExitCode is the rollout CLI's expected exit code for c.
func (c Candidate) ExitCode() int {
	if c.Flawed {
		return 2
	}
	return 0
}

// GateSpec is the risk spec the rollout CLI's gate sweeps run with root
// seed root (cmd/rollout builds the same spec in-process).
func GateSpec(root uint64) string {
	return fmt.Sprintf("{\"model\": \"connected-car\", \"seed\": %d}\n", root)
}
