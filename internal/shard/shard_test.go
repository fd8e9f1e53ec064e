package shard

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// TestRanges pins the contiguous-partition contract: ranges cover [0, total)
// exactly once, sizes differ by at most one, remainder goes earliest.
func TestRanges(t *testing.T) {
	tests := []struct {
		total, n int
		want     []Range
	}{
		{1, 1, []Range{{0, 1}}},
		{1, 4, []Range{{0, 1}}},                          // clamped to total
		{10, 4, []Range{{0, 3}, {3, 3}, {6, 2}, {8, 2}}}, // remainder earliest
		{8, 4, []Range{{0, 2}, {2, 2}, {4, 2}, {6, 2}}},  // even split
		{5, 0, []Range{{0, 5}}},                          // clamped to 1
		{1000000, 3, []Range{{0, 333334}, {333334, 333333}, {666667, 333333}}},
	}
	for _, tc := range tests {
		got := Ranges(tc.total, tc.n)
		if len(got) != len(tc.want) {
			t.Errorf("Ranges(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
			continue
		}
		covered := 0
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Ranges(%d, %d)[%d] = %v, want %v", tc.total, tc.n, i, got[i], tc.want[i])
			}
			if got[i].Start != covered {
				t.Errorf("Ranges(%d, %d)[%d] not contiguous: start %d, want %d", tc.total, tc.n, i, got[i].Start, covered)
			}
			covered += got[i].Count
		}
		if covered != tc.total {
			t.Errorf("Ranges(%d, %d) covers %d vehicles", tc.total, tc.n, covered)
		}
	}
	if got := Ranges(0, 4); got != nil {
		t.Errorf("Ranges(0, 4) = %v, want nil", got)
	}
}

func TestParseRangeRoundTrip(t *testing.T) {
	for _, r := range Ranges(1000, 7) {
		got, err := ParseRange(r.String())
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", r, err)
		}
		if got != r {
			t.Errorf("ParseRange(%q) = %v", r, got)
		}
	}
	for _, bad := range []string{
		"", "5", "-1:3", "0:0", "0:-2", "a:b",
		// fmt.Sscanf leniency regressions: trailing garbage, embedded
		// garbage, whitespace, signs and extra fields must all be
		// rejected, not truncated into a plausible range.
		"0:5x", "0x1:5", " 0:5", "0:5 ", "0: 5", "1:2:3", "+1:5", "0:+5", "١:٥",
	} {
		if _, err := ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q) accepted", bad)
		}
	}
}

// smallCfg is a fast whole-fleet config exercising live + MAC + attack
// phases with a reduced scenario set.
func smallCfg(fleet int) engine.Config {
	return engine.Config{
		Fleet:   fleet,
		Workers: 2,
		Groups: []engine.ScenarioGroup{{
			Scenarios: attack.Scenarios()[:2],
			Regimes:   []attack.Enforcement{attack.EnforceNone, attack.EnforceHPE},
			RootSeed:  0xC0FFEE,
		}},
		TrafficHorizon: 10 * time.Millisecond,
	}
}

// TestShardedRunByteIdentical is the tentpole contract: the merged sharded
// report renders byte-identically to the unsharded engine.Run for every
// shard count, vehicle lines and all.
func TestShardedRunByteIdentical(t *testing.T) {
	cfg := smallCfg(9)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	for _, shards := range []int{1, 2, 4, 9, 20} {
		got, err := Run(Config{Engine: cfg, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.String() != want {
			t.Errorf("shards=%d: merged report diverged from unsharded oracle\n--- oracle\n%s\n--- sharded\n%s", shards, want, got.String())
		}
	}
}

// TestShardedChaosHealthIdentical asserts shard-layout invariance under
// armed supervision: chaos faults key on global vehicle indices, so the
// Health ledger (and everything else) must not move when the shard layout
// changes.
func TestShardedChaosHealthIdentical(t *testing.T) {
	cfg := smallCfg(8)
	cfg.Chaos = &chaos.Plan{Seed: 7, Panic: 0.2, Deadline: 0.1}
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	if oracle.Health.IsZero() {
		t.Fatal("chaos plan injected nothing; test needs a fault-bearing config")
	}
	for _, shards := range []int{2, 3, 8} {
		got, err := Run(Config{Engine: cfg, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.String() != want {
			t.Errorf("shards=%d: chaos report diverged\n--- oracle\n%s\n--- sharded\n%s", shards, want, got.String())
		}
		if got.Health != oracle.Health {
			t.Errorf("shards=%d: health ledger moved: %+v vs %+v", shards, got.Health, oracle.Health)
		}
	}
}

// TestSpawnedShardsByteIdentical drives the spawn-hook path without a
// subprocess: the hook runs the range in-process, encodes the whole shard
// onto the binary wire into a buffer, and serves the decoded stream —
// proving the encoding carries everything the merge needs.
func TestSpawnedShardsByteIdentical(t *testing.T) {
	cfg := smallCfg(6)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spawned := 0
	got, err := Run(Config{Engine: cfg, Shards: 3, Spawn: func(r Range) (Stream, error) {
		spawned++
		var buf bytes.Buffer
		if err := RunRangeWire(cfg, r, &buf); err != nil {
			return nil, err
		}
		return NewWireStream(&buf, nil), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if spawned != 3 {
		t.Errorf("spawn hook ran %d times, want 3", spawned)
	}
	if got.String() != oracle.String() {
		t.Errorf("spawned merge diverged from oracle\n--- oracle\n%s\n--- spawned\n%s", oracle.String(), got.String())
	}
}

// sliceStream is a test-local Stream over vehicle reports already in
// memory, with whatever trailer the test sets: the fake transport the
// driver-contract tests lie through.
type sliceStream struct {
	vs      []engine.VehicleReport
	r       Range
	errText string
	i       int
}

func (s *sliceStream) Next() (*engine.VehicleReport, error) {
	if s.i >= len(s.vs) {
		return nil, io.EOF
	}
	s.i++
	return &s.vs[s.i-1], nil
}

func (s *sliceStream) Trailer() (Range, string, error) { return s.r, s.errText, nil }
func (s *sliceStream) Close() error                    { return nil }

// localStream runs one range in process and serves its outcome as a
// sliceStream with an honest trailer.
func localStream(t *testing.T, cfg engine.Config, r Range) *sliceStream {
	t.Helper()
	fr, err := engine.Run(rangeConfig(cfg, r))
	if err != nil {
		t.Fatalf("range %s: %v", r, err)
	}
	return &sliceStream{vs: fr.Vehicles, r: r}
}

// TestShardedUnrecoverableSurfaces asserts the partial-report contract
// across the shard boundary: an unrecoverable sweep error in one shard
// surfaces from Run naming the range, and the merged report still carries
// every shard's vehicles.
func TestShardedUnrecoverableSurfaces(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Chaos = &chaos.Plan{Seed: 3, Panic: 1, Persist: 99}
	got, err := Run(Config{Engine: cfg, Shards: 2})
	if err == nil {
		t.Fatal("unrecoverable chaos sweep returned nil error")
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("error does not name the shard: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("partial merged report missing vehicles: %+v", got)
	}
	if got.Health.Unrecoverable == 0 {
		t.Error("merged health ledger lost the unrecoverable count")
	}
}

// TestRunRejectsPreOffsetConfig pins the index-space ownership rule.
func TestRunRejectsPreOffsetConfig(t *testing.T) {
	cfg := smallCfg(4)
	cfg.IndexOffset = 2
	if _, err := Run(Config{Engine: cfg, Shards: 2}); err == nil {
		t.Fatal("Run accepted a pre-offset engine config")
	}
}

// TestRunRangeWireRejectsRangeOutsideFleet: a shard child handed a range
// past the end of the fleet (or overlapping it) fails before writing a
// single frame, instead of streaming vehicles the fleet does not have.
func TestRunRangeWireRejectsRangeOutsideFleet(t *testing.T) {
	cfg := smallCfg(2)
	for _, r := range []Range{{Start: 3, Count: 2}, {Start: 1, Count: 2}, {Start: 2, Count: 1}} {
		var buf bytes.Buffer
		err := RunRangeWire(cfg, r, &buf)
		if err == nil || !strings.Contains(err.Error(), "outside the fleet") {
			t.Errorf("range %s: err = %v, want an outside-the-fleet error", r, err)
		}
		if buf.Len() != 0 {
			t.Errorf("range %s: wrote %d bytes before rejecting", r, buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := RunRangeWire(cfg, Range{Start: 1, Count: 1}, &buf); err != nil {
		t.Errorf("in-fleet range rejected: %v", err)
	}
}

// wireSpawn is a binary-wire spawn hook without a subprocess: RunRangeWire
// streams frames into a pipe from a goroutine (real producer/consumer
// concurrency, no pre-buffered document) and the stream decodes the read
// end, exactly the shape carsim's -shard-exec hook has.
func wireSpawn(cfg engine.Config) Spawn {
	return func(r Range) (Stream, error) {
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(RunRangeWire(cfg, r, pw)) }()
		return NewWireStream(pr, pr.Close), nil
	}
}

// TestBinaryWireStreamByteIdentical proves the binary protocol carries
// everything the merge needs: streaming frames through a pipe renders the
// same bytes as the unsharded oracle.
func TestBinaryWireStreamByteIdentical(t *testing.T) {
	cfg := smallCfg(7)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{Engine: cfg, Shards: 3, Spawn: wireSpawn(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != oracle.String() {
		t.Errorf("binary wire merge diverged from oracle\n--- oracle\n%s\n--- wire\n%s", oracle.String(), got.String())
	}
}

// TestParallelFanOutByteIdentical pins the concurrent-driver contract:
// whatever the parallelism level and however small the reorder window,
// shards merge strictly in range order and the report does not move a
// byte. Window 1 forces every ahead-of-cursor producer to block, the
// harshest reorder schedule.
func TestParallelFanOutByteIdentical(t *testing.T) {
	cfg := smallCfg(9)
	oracle, err := engine.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.String()
	for _, par := range []int{2, 4, 16} {
		for _, window := range []int{1, 3, 0} {
			got, err := Run(Config{
				Engine: cfg, Shards: 4, Spawn: wireSpawn(cfg),
				Parallelism: par, Window: window,
			})
			if err != nil {
				t.Fatalf("parallelism=%d window=%d: %v", par, window, err)
			}
			if got.String() != want {
				t.Errorf("parallelism=%d window=%d: merged report diverged from oracle", par, window)
			}
		}
	}
}

// TestSpawnErrorPartialReport is the satellite regression: a Spawn error
// must be recorded like a shard sweep failure — the remaining ranges
// still merge and Run returns the partial report alongside the error —
// not discard every already-collected shard's vehicles.
func TestSpawnErrorPartialReport(t *testing.T) {
	cfg := smallCfg(8)
	boom := errors.New("host unreachable")
	spawn := func(r Range) (Stream, error) {
		if r.Start == 2 { // the second of four 2-vehicle ranges
			return nil, boom
		}
		return localStream(t, cfg, r), nil
	}
	for _, par := range []int{1, 3} {
		got, err := Run(Config{Engine: cfg, Shards: 4, Spawn: spawn, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism=%d: spawn failure surfaced no error", par)
		}
		if !errors.Is(err, boom) {
			t.Errorf("parallelism=%d: joined error lost the spawn cause: %v", par, err)
		}
		if !strings.Contains(err.Error(), "shard 2:2") {
			t.Errorf("parallelism=%d: error does not name the failed range: %v", par, err)
		}
		if got == nil {
			t.Fatalf("parallelism=%d: no partial report", par)
		}
		if len(got.Vehicles) != 6 {
			t.Errorf("parallelism=%d: partial report carries %d vehicles, want 6 (the three healthy shards)", par, len(got.Vehicles))
		}
		for i, want := range []int{0, 1, 4, 5, 6, 7} {
			if got.Vehicles[i].Index != want {
				t.Errorf("parallelism=%d: vehicle %d has index %d, want %d", par, i, got.Vehicles[i].Index, want)
			}
		}
	}
}

// TestTrailerMismatchRecorded pins the range-echo check: a stream
// covering the wrong range is recorded, the rest still merges.
func TestTrailerMismatchRecorded(t *testing.T) {
	cfg := smallCfg(4)
	spawn := func(r Range) (Stream, error) {
		st := localStream(t, cfg, r)
		if r.Start == 0 {
			st.r = Range{Start: 99, Count: 1} // lie about coverage
		}
		return st, nil
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn})
	if err == nil {
		t.Fatal("range-echo mismatch surfaced no error")
	}
	if !strings.Contains(err.Error(), "covers 99:1") {
		t.Errorf("error does not describe the mismatch: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("mismatched shard's vehicles were dropped: %+v", got)
	}
}

// TestOvercountRecorded pins the count half of the range contract: a
// stream carrying more vehicles than its range is recorded, only the
// range's own count is folded, and the other shard still merges.
func TestOvercountRecorded(t *testing.T) {
	cfg := smallCfg(4)
	spawn := func(r Range) (Stream, error) {
		st := localStream(t, cfg, r)
		if r.Start == 2 {
			st.vs = append(st.vs, st.vs[len(st.vs)-1]) // one vehicle too many
		}
		return st, nil
	}
	for _, par := range []int{1, 2} {
		got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism=%d: overcount surfaced no error", par)
		}
		if !strings.Contains(err.Error(), "shard 2:2: stream carried 3 vehicles") {
			t.Errorf("parallelism=%d: error does not describe the overcount: %v", par, err)
		}
		if got == nil || len(got.Vehicles) != 4 {
			t.Fatalf("parallelism=%d: merged report carries %+v, want the fleet's 4 vehicles", par, got)
		}
	}
}

// TestWireUnrecoverableSurfaces runs the unrecoverable-sweep contract over
// the binary wire: the trailer carries the sweep error, the partial
// vehicles still stream, and the parent folds + surfaces both.
func TestWireUnrecoverableSurfaces(t *testing.T) {
	cfg := smallCfg(4)
	cfg.Chaos = &chaos.Plan{Seed: 3, Panic: 1, Persist: 99}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: wireSpawn(cfg), Parallelism: 2})
	if err == nil {
		t.Fatal("unrecoverable chaos sweep returned nil error")
	}
	if !strings.Contains(err.Error(), "shard ") {
		t.Errorf("error does not name the shard: %v", err)
	}
	if got == nil || len(got.Vehicles) != 4 {
		t.Fatalf("partial merged report missing vehicles: %+v", got)
	}
	if got.Health.Unrecoverable == 0 {
		t.Error("merged health ledger lost the unrecoverable count")
	}
}

// TestCorruptWireStreamRecorded pins the checksum containment stance end
// to end: a corrupted shard stream surfaces as wire.ErrFrameChecksum in
// the joined error, the other shard still merges, and nothing from the
// corrupt stream's tail lands in the report silently.
func TestCorruptWireStreamRecorded(t *testing.T) {
	cfg := smallCfg(4)
	spawn := func(r Range) (Stream, error) {
		var buf bytes.Buffer
		if err := RunRangeWire(cfg, r, &buf); err != nil {
			return nil, err
		}
		b := buf.Bytes()
		if r.Start == 2 {
			b[len(b)/2] ^= 0x01 // flip one mid-stream bit
		}
		return NewWireStream(bytes.NewReader(b), nil), nil
	}
	got, err := Run(Config{Engine: cfg, Shards: 2, Spawn: spawn})
	if err == nil {
		t.Fatal("corrupted stream surfaced no error")
	}
	if !errors.Is(err, wire.ErrFrameChecksum) {
		t.Errorf("joined error is not ErrFrameChecksum: %v", err)
	}
	if got == nil || len(got.Vehicles) < 2 {
		t.Fatalf("healthy shard's vehicles were dropped: %+v", got)
	}
}
