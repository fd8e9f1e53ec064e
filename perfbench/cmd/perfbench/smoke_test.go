package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke builds the CLIs from this checkout and runs every workload's
// first set-up op and one timed op through all output checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.tmp)
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	if err := runSmoke(e, DefaultSeed); err != nil {
		t.Fatal(err)
	}
}

func TestStripTimings(t *testing.T) {
	in := "mode=batched\nCampaign x\nrow\n\nthroughput: 5 vehicles/s\n"
	if got := string(stripTimings([]byte(in))); got != "Campaign x\nrow\n\n" {
		t.Errorf("stripTimings = %q", got)
	}
}
