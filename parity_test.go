package memscale

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// The pins below come from the retired channel-sharded engine on four
// shards, which then matched the serial engine bit for bit; they hold
// the serial engine to those bits on partitioned ("/part") placement.

// summaryDigest is the SHA-256 of every numeric field sameBits
// compares, rendered as Float64bits (map entries in key order).
func summaryDigest(sum RunSummary) string {
	var b strings.Builder
	put := func(name string, v float64) { fmt.Fprintf(&b, "%s=%#x\n", name, math.Float64bits(v)) }
	put("DurationSeconds", sum.DurationSeconds)
	put("MemoryEnergyJ", sum.MemoryEnergyJ)
	put("SystemEnergyJ", sum.SystemEnergyJ)
	put("MemorySavings", sum.MemorySavings)
	put("SystemSavings", sum.SystemSavings)
	put("AvgCPIIncrease", sum.AvgCPIIncrease)
	put("WorstCPIIncrease", sum.WorstCPIIncrease)
	freqs := make([]int, 0, len(sum.FreqSeconds))
	for f := range sum.FreqSeconds {
		freqs = append(freqs, f)
	}
	sort.Ints(freqs)
	for _, f := range freqs {
		put(fmt.Sprintf("FreqSeconds[%d]", f), sum.FreqSeconds[f])
	}
	kinds := make([]string, 0, len(sum.FaultCounts))
	for k := range sum.FaultCounts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "FaultCounts[%s]=%d\n", k, sum.FaultCounts[k])
	}
	fmt.Fprintf(&b, "DegradedEpochs=%d\nAttempts=%d\nEvents=%d\n", sum.DegradedEpochs, sum.Attempts, sum.Events)
	d := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(d[:])
}

// TestShardParity runs every golden config on its partitioned variant
// and requires the summary digest the four-shard engine produced.
func TestShardParity(t *testing.T) {
	pins := map[string]string{
		"MEM1/MemScale":           "2341409cf26d913dcde2045b42e687bfd5e56fef9aaf084b8a8e96abb06ae0c1",
		"ILP1/Static":             "ce97c5c0f44848f625db001b90f220db57b2c29a21d1d58471d9d41a8d16e682",
		"MID2/MemScale + Fast-PD": "a9c0050b83c154c46c24838845e74678ee2604542edb9ea049b2dd8e76049ccc",
		"MID3/Slow-PD":            "54df28f87b2a1a556011bff64219ce3bf11713939ed19494cec585205d505139",
		"MID1/MemScale":           "280d3eabafb7b9781772e6a9842da6b4b01bdcf5f378d15b3c3272012b4c916a",
	}
	ctx := context.Background()
	for _, rc := range goldenConfigs() {
		rc.Partitioned = true
		name := rc.Mix + "/" + rc.Policy
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sum, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryDigest(sum); got != pins[name] {
				t.Errorf("summary digest = %s, want %s", got, pins[name])
			}
		})
	}
}

// TestShardTelemetryParity is TestShardParity with full telemetry on:
// the summary digest and the SHA-256 of the canonical JSONL export must
// both match what the four-shard engine produced.
func TestShardTelemetryParity(t *testing.T) {
	pins := map[string]struct{ sum, tel string }{
		"MEM1/MemScale": {
			"3e6bb5ecab9e8badf21fed41aa33656067be141e88acb68e54b7583937574436",
			"39f32802ab8b241213b11f16a41ecfd81d9c5e3ef3517aedbbcd667194317c2e"},
		"ILP1/Static": {
			"930e5bf6c295672ae9ffc66955e1f1f492eb59545d312e20ffad4d8376b509ea",
			"86e6fc5e03ad6c11c0d27d72ac064ad0da8f99012cc38e35350a381ac7f5a77f"},
		"MID2/MemScale + Fast-PD": {
			"b465a03e2f804d70d54f55aa56d1e1208c698cf1a8c8222659f6db3e8e96f4f5",
			"88db409953b33fe0bac652a2d371e62364bc0edcb29fba7f83435abd909b48b8"},
		"MID3/Slow-PD": {
			"779064f337d4d3025bdca8812aa3bd0d2c55ad19f09495232e9a60172af8d87f",
			"ce84c2078dfabf9fdafb6f37dc86c29149a90040df84d8e14c6897786c17a5a3"},
		"MID1/MemScale": {
			"ae88cfb348c6d938128810cb1d54d02448878a89503e85d88d363b7581aca611",
			"b83649d31ecfa17887d2935100545e32fae2cf0e00644c38308344b551a6f7bd"},
	}
	ctx := context.Background()
	for _, rc := range goldenConfigs() {
		rc.Partitioned = true
		rc.Telemetry = &TelemetryConfig{Events: true}
		name := rc.Mix + "/" + rc.Policy
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sum, err := RunContext(ctx, rc)
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryDigest(sum); got != pins[name].sum {
				t.Errorf("summary digest = %s, want %s", got, pins[name].sum)
			}
			tel := sha256.Sum256([]byte(canonicalTelemetry(t, sum)))
			if got := hex.EncodeToString(tel[:]); got != pins[name].tel {
				t.Errorf("canonical telemetry SHA-256 = %s, want %s", got, pins[name].tel)
			}
		})
	}
}

// TestFleetShardIdentity holds a capped fleet of partitioned nodes to
// the fleet summary its four-shard nodes produced.
func TestFleetShardIdentity(t *testing.T) {
	fc := FleetConfig{
		Epochs:       3,
		Seed:         11,
		PowerBudgetW: 400,
		Groups: []NodeGroup{
			{Name: "mem", Nodes: 2, Mix: "MEM1/part", Cores: 4},
			{Name: "mid", Nodes: 2, Mix: "MID1/part", Cores: 4},
		},
	}
	got, err := RunFleet(context.Background(), fc)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    float64
		want uint64
	}{
		{"SER", got.SER, 0x3fe94dce62714f89},
		{"AvgCPIIncrease", got.AvgCPIIncrease, 0x3fc05095179e6954},
		{"MemAvgPowerW", got.MemAvgPowerW, 0x4053b8e766290cfb},
	} {
		if b := math.Float64bits(c.v); b != c.want {
			t.Errorf("%s = %v (%#x), want %#x", c.name, c.v, b, c.want)
		}
	}
}
