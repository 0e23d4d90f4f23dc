package memscale

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"memscale/internal/config"
	"memscale/internal/sim"
)

// TestRunConfigValidateFieldPaths checks that every rejection names
// the offending field with its snake_case path, so callers can surface
// the exact field without parsing prose.
func TestRunConfigValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name string
		rc   RunConfig
		path string
	}{
		{"negative epochs", RunConfig{Epochs: -1}, "epochs"},
		{"gamma at one", RunConfig{Gamma: 1}, "gamma"},
		{"gamma negative", RunConfig{Gamma: -0.1}, "gamma"},
		{"negative cores", RunConfig{Cores: -4}, "cores"},
		{"negative channels", RunConfig{Channels: -1}, "channels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rc.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Errorf("error %q does not name field path %q", err, tc.path)
			}
		})
	}
}

// TestRunConfigValidateAccepts: zero values and sane settings pass.
func TestRunConfigValidateAccepts(t *testing.T) {
	good := []RunConfig{
		{},
		{Mix: "MID1", Policy: "MemScale"},
		{Epochs: 3, Gamma: 0.25, Cores: 4, Channels: 2},
	}
	for i, rc := range good {
		if err := rc.Validate(); err != nil {
			t.Errorf("case %d rejected: %v", i, err)
		}
	}
}

// TestRunLengthBound: a run, a fleet horizon or a resume target longer
// than sim.MaxEpochs is rejected before it starts and names its epochs
// field; the bound itself is accepted.
func TestRunLengthBound(t *testing.T) {
	wantEpochsErr := func(what string, err error, path string) {
		t.Helper()
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("%s: err = %v, want ErrInvalidConfig", what, err)
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %q", what, err, path)
		}
	}
	for _, channels := range []int{0, 1} {
		cfg := config.Default()
		if channels > 0 {
			cfg.Channels = channels
		}
		limit := sim.MaxEpochs(&cfg)
		if err := (RunConfig{Epochs: limit, Channels: channels}).Validate(); err != nil {
			t.Errorf("%d channels: run of %d epochs rejected: %v", cfg.Channels, limit, err)
		}
		wantEpochsErr("run", RunConfig{Epochs: limit + 1, Channels: channels}.Validate(), "epochs")

		group := []NodeGroup{{Nodes: 1, Mix: "MID1", Channels: channels}}
		if err := (FleetConfig{Groups: group, Epochs: limit}).Validate(); err != nil {
			t.Errorf("%d channels: fleet horizon of %d epochs rejected: %v", cfg.Channels, limit, err)
		}
		wantEpochsErr("fleet", FleetConfig{Groups: group, Epochs: limit + 1}.Validate(), "epochs")
	}
	// Zero epochs selects the default 10; a machine whose bound is
	// below that is rejected too, and a channel count large enough to
	// wrap the bound's arithmetic around does not lift it.
	wantEpochsErr("default run", RunConfig{Channels: 1 << 20}.Validate(), "epochs")
	wantEpochsErr("wrapping channels", RunConfig{Epochs: 1 << 39, Channels: 3 << 60}.Validate(), "epochs")

	f, err := os.Open("testdata/ckpt-mem1-schema1.1.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = ResumeRun(context.Background(), f, 1<<30)
	wantEpochsErr("resume", err, "resume.epochs")
}

// TestValidateMatchesRunContext: a config Validate rejects must be
// rejected identically by RunContext (Validate is the same gate the
// runners use, not a parallel reimplementation).
func TestValidateMatchesRunContext(t *testing.T) {
	rc := RunConfig{Mix: "MID1", Epochs: -1}
	verr := rc.Validate()
	_, rerr := RunContext(context.Background(), rc)
	if verr == nil || rerr == nil {
		t.Fatalf("Validate = %v, RunContext = %v; both must fail", verr, rerr)
	}
	if verr.Error() != rerr.Error() {
		t.Errorf("Validate error %q != RunContext error %q", verr, rerr)
	}
}

// TestCheckpointValidateFieldPaths extends the field-path contract to
// the checkpoint knob: every rejection wraps ErrInvalidConfig and
// names the offending field before any simulation runs.
func TestCheckpointValidateFieldPaths(t *testing.T) {
	rc := RunConfig{Mix: "MID1", Policy: "MemScale", Epochs: 2}
	for _, tc := range []struct {
		name    string
		atEpoch int
	}{
		{"checkpoint epoch beyond run", 99},
		{"negative checkpoint epoch", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CheckpointRun(context.Background(), rc, tc.atEpoch, io.Discard)
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("err = %v, want ErrInvalidConfig", err)
			}
			if !strings.Contains(err.Error(), "checkpoint.at_epoch") {
				t.Errorf("error %q does not name checkpoint.at_epoch", err)
			}
		})
	}
}

// TestFleetConfigValidateFieldPaths mirrors the run-config contract
// for the fleet surface, including indexed group paths.
func TestFleetConfigValidateFieldPaths(t *testing.T) {
	okGroup := NodeGroup{Name: "g", Nodes: 1, Mix: "MID1"}
	cases := []struct {
		name string
		fc   FleetConfig
		path string
	}{
		{"no groups", FleetConfig{}, "groups"},
		{"negative epochs", FleetConfig{Groups: []NodeGroup{okGroup}, Epochs: -1}, "epochs"},
		{"negative budget", FleetConfig{Groups: []NodeGroup{okGroup}, PowerBudgetW: -5}, "power_budget_w"},
		{"negative cap interval",
			FleetConfig{Groups: []NodeGroup{okGroup}, CapIntervalEpochs: -1}, "cap_interval_epochs"},
		{"zero nodes",
			FleetConfig{Groups: []NodeGroup{{Mix: "MID1"}}}, "groups[0].nodes"},
		{"second group bad nodes",
			FleetConfig{Groups: []NodeGroup{okGroup, {Mix: "MID1"}}}, "groups[1].nodes"},
		{"bad gamma",
			FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: "MID1", Gamma: 1.2}}}, "groups[0].gamma"},
		{"bad arrival",
			FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: "MID1",
				Arrival: ArrivalConfig{Kind: "nope"}}}}, "groups[0].arrival"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.fc.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
			if !strings.Contains(err.Error(), tc.path) {
				t.Errorf("error %q does not name field path %q", err, tc.path)
			}
		})
	}
}

// TestFleetConfigValidateSentinels: unknown names match their specific
// sentinels as well as ErrInvalidConfig.
func TestFleetConfigValidateSentinels(t *testing.T) {
	for _, mix := range []string{"BOGUS", "MID1/part"} {
		fc := FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: mix}}}
		err := fc.Validate()
		if !errors.Is(err, ErrUnknownMix) || !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("mix %q: error %v must match ErrUnknownMix and ErrInvalidConfig", mix, err)
		}
		if _, err := RunFleet(context.Background(), fc); !errors.Is(err, ErrUnknownMix) {
			t.Errorf("mix %q: RunFleet error %v must match ErrUnknownMix", mix, err)
		}
	}
	err := FleetConfig{Groups: []NodeGroup{{Nodes: 1, Mix: "MID1", Policy: "BOGUS"}}}.Validate()
	if !errors.Is(err, ErrUnknownPolicy) || !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown policy error %v must match ErrUnknownPolicy and ErrInvalidConfig", err)
	}
	ok := FleetConfig{Groups: []NodeGroup{{Nodes: 2, Mix: "MID1", Policy: "MemScale",
		Arrival: ArrivalConfig{Kind: ArrivalPoisson}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid fleet config rejected: %v", err)
	}
}
