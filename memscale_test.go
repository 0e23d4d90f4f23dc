package memscale

import (
	"strings"
	"testing"

	"memscale/internal/bitdiff"
)

func TestMixesAndPolicies(t *testing.T) {
	if len(Mixes()) != 12 {
		t.Errorf("Mixes() = %d entries, want 12", len(Mixes()))
	}
	if len(Policies()) != 8 {
		t.Errorf("Policies() = %d entries, want 8", len(Policies()))
	}
	found := false
	for _, p := range Policies() {
		if p == "MemScale" {
			found = true
		}
	}
	if !found {
		t.Error("Policies() missing MemScale")
	}
}

func TestRunDefaultsAndErrors(t *testing.T) {
	if _, err := Run(RunConfig{Mix: "NOPE"}); err == nil {
		t.Error("unknown mix must error")
	}
	if _, err := Run(RunConfig{Mix: "MID1", Policy: "NOPE"}); err == nil {
		t.Error("unknown policy must error")
	}
}

func TestRunQuickPair(t *testing.T) {
	sum, err := Run(RunConfig{Mix: "ILP2", Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Policy != "MemScale" || sum.Mix != "ILP2" {
		t.Errorf("labels: %s/%s", sum.Mix, sum.Policy)
	}
	if sum.DurationSeconds != 0.010 {
		t.Errorf("duration = %g s, want 0.010", sum.DurationSeconds)
	}
	if sum.MemorySavings < 0.3 {
		t.Errorf("ILP2 memory savings = %.1f%%, want substantial", sum.MemorySavings*100)
	}
	if sum.SystemSavings <= 0 || sum.SystemSavings >= sum.MemorySavings {
		t.Errorf("system savings %.3f should be positive and below memory savings %.3f",
			sum.SystemSavings, sum.MemorySavings)
	}
	if sum.WorstCPIIncrease > 0.12 {
		t.Errorf("worst CPI increase %.1f%% above bound", sum.WorstCPIIncrease*100)
	}
	var total float64
	for _, s := range sum.FreqSeconds {
		total += s
	}
	if total != sum.DurationSeconds {
		t.Errorf("frequency residency sums to %g, want %g", total, sum.DurationSeconds)
	}
	if !strings.Contains(sum.String(), "ILP2/MemScale") {
		t.Errorf("String() = %q", sum.String())
	}
}

func TestRunTimeline(t *testing.T) {
	sum, err := Run(RunConfig{Mix: "ILP2", Epochs: 2, Timeline: true, Cores: 8, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Timeline) != 2 {
		t.Fatalf("timeline has %d epochs, want 2", len(sum.Timeline))
	}
	ep := sum.Timeline[0]
	if len(ep.CoreCPI) != 8 {
		t.Errorf("core CPI entries = %d, want 8", len(ep.CoreCPI))
	}
	if len(ep.ChannelUtil) != 2 {
		t.Errorf("channel entries = %d, want 2", len(ep.ChannelUtil))
	}
	if ep.EndMs() != 5 {
		t.Errorf("first epoch ends at %g ms", ep.EndMs())
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(RunConfig{Mix: "MID4", Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunConfig{Mix: "MID4", Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "identical RunConfigs", a, b)
}

func TestExperimentsRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) < 12 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	// Retired ids must not resolve.
	for _, id := range []string{"no-such-figure", "ablations", "futurework"} {
		if _, err := RunExperiment(id, ExperimentParams{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("RunExperiment(%q): err = %v, want unknown experiment", id, err)
		}
	}
}

func TestRunExperimentTable2(t *testing.T) {
	reports, err := RunExperiment("table2", ExperimentParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].ID != "table2" {
		t.Fatalf("reports: %+v", reports)
	}
	if !strings.Contains(reports[0].Text, "tRCD") {
		t.Error("table2 text missing settings")
	}
	if !strings.Contains(reports[0].CSV, "Feature,Value") {
		t.Error("table2 CSV missing header")
	}
}

func TestRunExperimentFigure13Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	reports, err := RunExperiment("figure13", ExperimentParams{Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := reports[0].Text
	for _, want := range []string{"4 channels", "3 channels", "2 channels"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure13 missing row %q:\n%s", want, text)
		}
	}
}
