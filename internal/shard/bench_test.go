package shard_test

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/shard/wire"
)

// streamShard is the shard BenchmarkShardStream moves: a quarter of the
// quickstart campaign at fleet 10^5, the range each child streams in a
// four-shard subprocess sweep.
const streamShard = 25000

// BenchmarkShardStream measures the shard wire end to end, without the
// simulation: one op encodes a quickstart shard's vehicle reports into a
// wire stream, then decodes it and folds it into the merged report through
// shard.Run's spawn path, the parent's side of `carsim -shard-exec`.
// ns/vehicle covers encode, decode and fold; bytes/vehicle is the stream's
// size, header, block frames and trailer included.
func BenchmarkShardStream(b *testing.B) {
	src, err := os.ReadFile("../../examples/campaigns/quickstart.campaign")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := campaign.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	ecfg, err := campaign.EngineConfig(plan, campaign.SweepConfig{Fleet: streamShard, RootSeed: 42})
	if err != nil {
		b.Fatal(err)
	}
	fr, err := engine.Run(ecfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := shard.Config{
		Engine: ecfg,
		Shards: 1,
		Spawn: func(shard.Range) (shard.Stream, error) {
			return shard.NewWireStream(bytes.NewReader(buf.Bytes()), nil), nil
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w := wire.NewWriter(&buf)
		for j := range fr.Vehicles {
			if err := w.WriteVehicle(&fr.Vehicles[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.WriteTrailer(wire.Trailer{Start: 0, Count: streamShard}); err != nil {
			b.Fatal(err)
		}
		merged, err := shard.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(merged.Vehicles) != streamShard {
			b.Fatalf("merged %d vehicles, want %d", len(merged.Vehicles), streamShard)
		}
	}
	b.StopTimer()
	if merged, _ := shard.Run(cfg); merged.String() != fr.String() {
		b.Fatal("streamed merge differs from the in-process run")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*streamShard), "ns/vehicle")
	b.ReportMetric(float64(buf.Len())/streamShard, "bytes/vehicle")
}
