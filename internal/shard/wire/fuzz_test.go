package wire_test

import (
	"bytes"
	"io"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/shard/wire"
)

// quickstartVehicles sweeps a small fleet through the shipped quickstart
// campaign — the corpus the fuzzer mutates is real production payloads, not
// synthetic fixtures (the FuzzParse pattern: seed from shipped examples).
// The sweep is cell-major, so every vehicle shares one block.
func quickstartVehicles(f testing.TB, fleet int) []engine.VehicleReport {
	f.Helper()
	src, err := os.ReadFile("../../../examples/campaigns/quickstart.campaign")
	if err != nil {
		f.Fatal(err)
	}
	spec, err := campaign.Parse(string(src))
	if err != nil {
		f.Fatal(err)
	}
	plan, err := (campaign.Compiler{}).Compile(spec)
	if err != nil {
		f.Fatal(err)
	}
	ecfg, err := campaign.EngineConfig(plan, campaign.SweepConfig{
		Fleet: fleet, Workers: 2, RootSeed: 42,
	})
	if err != nil {
		f.Fatal(err)
	}
	fr, err := engine.Run(ecfg)
	if err != nil {
		f.Fatal(err)
	}
	return fr.Vehicles
}

// FuzzWireCodec fuzzes both decoding surfaces of the binary shard wire:
//
//  1. Stream safety — arbitrary bytes fed through a Reader must never
//     panic, whatever the mutator does to framing, lengths or payloads.
//  2. Payload fixed point — any byte string the vehicle decoder accepts
//     must re-encode canonically: encode(decode(data)) is a fixed point
//     under a further decode/encode round trip. (data itself need not be
//     canonical — uvarints admit non-minimal forms — which is why the
//     identity is asserted on enc1/enc2, not on data.)
//  3. Framed round trip — a decoded vehicle written through the real
//     Writer must come back structurally intact with its trailer.
//
// The corpus is seeded from a real quickstart campaign sweep so the
// mutator starts from production-shaped payloads.
func FuzzWireCodec(f *testing.F) {
	vs := quickstartVehicles(f, 3)
	for i := range vs {
		f.Add(wire.AppendVehicle(nil, &vs[i]))
	}
	// Whole streams (header + frames + trailer) seed the framing branch:
	// one block shared by every vehicle, and one switching blocks midway.
	for _, stream := range [][]engine.VehicleReport{vs, twoBlockVehicles(f)} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		for i := range stream {
			if err := w.WriteVehicle(&stream[i]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.WriteTrailer(wire.Trailer{Start: 0, Count: len(stream), Err: "boom"}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("CSW\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Stream decode: drain until EOF or error; must not panic.
		r := wire.NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		_, _ = r.Trailer()

		// 2. Payload fixed point.
		v, err := wire.DecodeVehiclePayload(data)
		if err != nil {
			return // rejected input; safety already proven above
		}
		enc1 := wire.AppendVehicle(nil, v)
		v2, err := wire.DecodeVehiclePayload(enc1)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2 := wire.AppendVehicle(nil, v2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode∘decode not a fixed point:\nenc1 %x\nenc2 %x", enc1, enc2)
		}

		// 3. Framed round trip through the real Writer/Reader.
		var stream bytes.Buffer
		sw := wire.NewWriter(&stream)
		if err := sw.WriteVehicle(v); err != nil {
			t.Fatalf("WriteVehicle: %v", err)
		}
		want := wire.Trailer{Start: v.Index, Count: 1, Err: "fuzz"}
		if err := sw.WriteTrailer(want); err != nil {
			t.Fatalf("WriteTrailer: %v", err)
		}
		sr := wire.NewReader(bytes.NewReader(stream.Bytes()))
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("framed decode: %v", err)
		}
		if enc3 := wire.AppendVehicle(nil, got); !bytes.Equal(enc1, enc3) {
			t.Fatal("framed round trip changed the vehicle payload")
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("expected EOF after trailer, got %v", err)
		}
		if tr, err := sr.Trailer(); err != nil || tr != want {
			t.Fatalf("trailer = %+v, %v; want %+v", tr, err, want)
		}
	})
}
