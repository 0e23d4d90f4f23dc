package memscale

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"memscale/internal/bitdiff"
	"memscale/internal/sim"
)

// TestForkEquivalence forks every golden config through the public
// container: CheckpointRun at the midpoint, then ResumeRun from the
// written bytes to the full length. Neither the Save at the midpoint
// nor the resume may perturb the run: both summaries must equal the
// plain run's bit for bit, fired-event count included.
func TestForkEquivalence(t *testing.T) {
	ctx := context.Background()
	for i, rc := range goldenConfigs() {
		t.Run(rc.Mix+"/"+rc.Policy, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			ckSum, err := CheckpointRun(ctx, rc, rc.Epochs/2, &buf)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeRun(ctx, &buf, rc.Epochs)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := goldenRuns[i]()
			if err != nil {
				t.Fatal(err)
			}
			bitdiff.Same(t, "checkpointed run", plain, ckSum)
			bitdiff.Same(t, "resumed run", plain, resumed)
		})
	}
}

// TestCheckpointRoundTrip covers the container format edges: final-
// epoch checkpoints resume with more epochs, and the typed failure
// modes surface as documented.
func TestCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Mix: "MID1", Policy: "MemScale", Epochs: 2, Cores: 4, Channels: 2}

	var buf bytes.Buffer
	if _, err := CheckpointRun(ctx, rc, 0, &buf); err != nil {
		t.Fatal(err)
	}

	// Extending the run from its final epoch must match the cold run of
	// the longer horizon bit for bit.
	long := rc
	long.Epochs = 4
	cold, err := RunContext(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeRun(ctx, bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "extended run", cold, resumed)

	t.Run("legacy 1.1 container", func(t *testing.T) {
		// testdata/ckpt-mem1-schema1.1.bin was written by an earlier
		// release at schema 1.1 (memscale-sim -checkpoint-out of
		// MEM1/MemScale, 2 epochs, 4 cores). Its event state carries
		// the handle-era node keys (gen, pos, free list, heap order)
		// and its controller image the per-channel counters and
		// operating point, so it is not byte-equal to a 1.3 container,
		// yet it must still resume bit-identically to the cold run.
		data, err := os.ReadFile(filepath.Join("testdata", "ckpt-mem1-schema1.1.bin"))
		if err != nil {
			t.Fatal(err)
		}
		long := RunConfig{Mix: "MEM1", Policy: "MemScale", Epochs: 4, Cores: 4}
		cold, err := RunContext(ctx, long)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ResumeRun(ctx, bytes.NewReader(data), 4)
		if err != nil {
			t.Fatal(err)
		}
		bitdiff.Same(t, "schema 1.1 container resumed", cold, res)
	})
	t.Run("epochs not beyond snapshot", func(t *testing.T) {
		_, err := ResumeRun(ctx, bytes.NewReader(buf.Bytes()), 2)
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "resume.epochs") {
			t.Fatalf("err = %v, want ErrInvalidConfig naming resume.epochs", err)
		}
	})
	t.Run("at_epoch out of range", func(t *testing.T) {
		var sink bytes.Buffer
		_, err := CheckpointRun(ctx, rc, 99, &sink)
		if !errors.Is(err, ErrInvalidConfig) || !strings.Contains(err.Error(), "checkpoint.at_epoch") {
			t.Fatalf("err = %v, want ErrInvalidConfig naming checkpoint.at_epoch", err)
		}
	})
	t.Run("corrupt container", func(t *testing.T) {
		_, err := ResumeRun(ctx, strings.NewReader("not a checkpoint\n"), 4)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("mismatched state", func(t *testing.T) {
		// Hand-edit the container's geometry: the state no longer fits
		// the configuration it claims to pair with.
		tampered := tamper(t, buf.Bytes(), `"Cores":4`, `"Cores":8`)
		_, err := ResumeRun(ctx, bytes.NewReader(tampered), 4)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("err = %v, want ErrInvalidConfig for mismatched state", err)
		}
	})
	t.Run("faulted run", func(t *testing.T) {
		// Containers written by a fault-injected run of an earlier
		// release name the disturbance schedule in meta.faults. The
		// schedule cannot be replayed, so the resume must fail rather
		// than silently continue without it.
		faulted := tamper(t, buf.Bytes(), `"meta":{`,
			`"meta":{"faults":{"Seed":42,"ThermalRate":0.5,"RefreshStormRate":0.5},`)
		_, err := ResumeRun(ctx, bytes.NewReader(faulted), 4)
		if !errors.Is(err, ErrInvalidConfig) || !errors.Is(err, sim.ErrStateMismatch) {
			t.Fatalf("err = %v, want ErrInvalidConfig wrapping the state mismatch", err)
		}
	})
	t.Run("swapped policy", func(t *testing.T) {
		// A container resumes only under the policy that wrote it. The
		// swaps cover a governed run resumed under another governor, an
		// ungoverned run resumed under a governor and back, and two
		// schemes that share the "memscale" governor but configure the
		// machine differently.
		for _, sw := range []struct{ from, to string }{
			{"Static", "MemScale"},
			{"Fast-PD", "MemScale"},
			{"Baseline", "Static"},
			{"MemScale", "Static"},
			{"MemScale", "MemScale + Fast-PD"},
			{"MemScale + Fast-PD", "MemScale"},
		} {
			t.Run(sw.from+" to "+sw.to, func(t *testing.T) {
				src := rc
				src.Policy, src.Epochs = sw.from, 1
				var ck bytes.Buffer
				if _, err := CheckpointRun(ctx, src, 0, &ck); err != nil {
					t.Fatal(err)
				}
				swapped := tamper(t, ck.Bytes(), `"policy":"`+sw.from+`"`, `"policy":"`+sw.to+`"`)
				_, err := ResumeRun(ctx, bytes.NewReader(swapped), 2)
				if !errors.Is(err, ErrInvalidConfig) || !errors.Is(err, sim.ErrStateMismatch) {
					t.Fatalf("err = %v, want ErrInvalidConfig wrapping the state mismatch", err)
				}
			})
		}
	})
}

// tamper replaces the first old in a container's bytes with new and
// recomputes the header's payload CRC, so the edit reaches the
// container's consumers rather than tripping the integrity check.
func tamper(t *testing.T, data []byte, old, new string) []byte {
	t.Helper()
	tampered := bytes.Replace(data, []byte(old), []byte(new), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target %q not found in container", old)
	}
	nl := bytes.IndexByte(tampered, '\n')
	if nl < 0 {
		t.Fatal("container has no header line")
	}
	sum := crc32.ChecksumIEEE(bytes.TrimSpace(tampered[nl+1:]))
	re := regexp.MustCompile(`"payload_crc32":\d+`)
	header := re.ReplaceAll(tampered[:nl], []byte(fmt.Sprintf(`"payload_crc32":%d`, sum)))
	if bytes.Equal(header, tampered[:nl]) {
		t.Fatal("payload_crc32 field not found in header")
	}
	return append(append(header, '\n'), tampered[nl+1:]...)
}

// TestRunPastTwoSeconds: a run longer than 2 s of simulated time
// covers every epoch it asks for, run cold, checkpointed, and resumed
// from the checkpoint.
func TestRunPastTwoSeconds(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Mix: "ILP1", Policy: "Static", Epochs: 401, Cores: 1, Channels: 1}
	cold, err := RunContext(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ck, err := CheckpointRun(ctx, rc, 200, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeRun(ctx, &buf, rc.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sum  RunSummary
	}{{"cold", cold}, {"checkpointed", ck}, {"resumed", resumed}} {
		if c.sum.DurationSeconds != 2.005 {
			t.Errorf("%s run: %v s simulated, want 2.005", c.name, c.sum.DurationSeconds)
		}
	}
}

// TestResumeRunCorruptReaders drives ResumeRun through every malformed
// container shape a crash can leave on disk — truncated mid-payload,
// header-only, bit-flipped payload bytes — and CRC-valid containers
// whose rest-of-system power is not positive or whose state the
// simulator cannot produce, asserting the typed failure contract:
// ErrCorruptCheckpoint, a *CheckpointSchemaVersionError or
// ErrInvalidConfig wrapping the state mismatch, never a panic, never a
// silent success.
func TestResumeRunCorruptReaders(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Mix: "MID1", Policy: "MemScale", Epochs: 2, Cores: 4, Channels: 2}
	var buf bytes.Buffer
	if _, err := CheckpointRun(ctx, rc, 0, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	headerEnd := bytes.IndexByte(data, '\n')
	if headerEnd < 0 {
		t.Fatal("container has no header line")
	}

	t.Run("truncated payload", func(t *testing.T) {
		for _, cut := range []int{headerEnd + 1, headerEnd + 10, len(data) / 2} {
			_, err := ResumeRun(ctx, bytes.NewReader(data[:cut]), 4)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Errorf("cut at %d: err = %v, want ErrCorruptCheckpoint", cut, err)
			}
		}
	})
	t.Run("header only", func(t *testing.T) {
		_, err := ResumeRun(ctx, bytes.NewReader(data[:headerEnd]), 4)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("bit flip in payload", func(t *testing.T) {
		// Flip one bit mid-payload: either the JSON still parses and the
		// CRC catches the flip, or the JSON breaks — both must surface
		// ErrCorruptCheckpoint.
		flipped := append([]byte(nil), data...)
		flipped[headerEnd+(len(data)-headerEnd)/2] ^= 0x01
		_, err := ResumeRun(ctx, bytes.NewReader(flipped), 4)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("foreign major version", func(t *testing.T) {
		bumped := bytes.Replace(data, []byte(`"schema_version":"1.`), []byte(`"schema_version":"9.`), 1)
		if bytes.Equal(bumped, data) {
			t.Fatal("schema_version not found in header")
		}
		_, err := ResumeRun(ctx, bytes.NewReader(bumped), 4)
		var sv *CheckpointSchemaVersionError
		if !errors.As(err, &sv) {
			t.Fatalf("err = %v, want *CheckpointSchemaVersionError", err)
		}
	})
	t.Run("empty reader", func(t *testing.T) {
		_, err := ResumeRun(ctx, strings.NewReader(""), 4)
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("non-positive rest-of-system power", func(t *testing.T) {
		// A CRC-valid container whose calibrated power is zero or
		// negative would give the resumed run a rest-of-system energy
		// of zero or below.
		field := regexp.MustCompile(`"non_mem_w":[^,}]+`).Find(data)
		if field == nil {
			t.Fatal("non_mem_w not found in container")
		}
		for _, w := range []string{"0", "-20.5"} {
			bad := tamper(t, data, string(field), `"non_mem_w":`+w)
			if _, err := ResumeRun(ctx, bytes.NewReader(bad), 4); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Errorf("non_mem_w %s: err = %v, want ErrCorruptCheckpoint", w, err)
			}
		}
	})

	t.Run("retired mix name", func(t *testing.T) {
		// The channel-partitioned "/part" mixes are gone; a container
		// naming one must fail by name, not resume some other placement.
		bad := tamper(t, data, `"mix":"MID1"`, `"mix":"MEM1/part"`)
		if _, err := ResumeRun(ctx, bytes.NewReader(bad), 4); !errors.Is(err, ErrUnknownMix) {
			t.Fatalf("err = %v, want ErrUnknownMix", err)
		}
	})

	mismatch := func(t *testing.T, bad []byte) {
		t.Helper()
		_, err := ResumeRun(ctx, bytes.NewReader(bad), 4)
		if !errors.Is(err, ErrInvalidConfig) || !errors.Is(err, sim.ErrStateMismatch) {
			t.Fatalf("err = %v, want ErrInvalidConfig wrapping the state mismatch", err)
		}
	}
	t.Run("short counter baseline", func(t *testing.T) {
		tlm := regexp.MustCompile(`("last_counters":\{"TLM":\[\d+,\d+,\d+),\d+\]`).FindSubmatch(data)
		if tlm == nil {
			t.Fatal("four-core last_counters TLM not found in container")
		}
		mismatch(t, tamper(t, data, string(tlm[0]), string(tlm[1])+"]"))
	})
	t.Run("frequency cap off the ladder", func(t *testing.T) {
		for _, f := range []string{"100", "500", "750"} {
			t.Run(f, func(t *testing.T) {
				mismatch(t, tamper(t, data, `"epoch_idx":`, `"cap_freq":`+f+`,"epoch_idx":`))
			})
		}
	})
	t.Run("rest-of-system power not the calibration", func(t *testing.T) {
		// 20.39 W becomes 120.39 W: positive, so Decode accepts it, but
		// not what the container's baseline calibrates.
		mismatch(t, tamper(t, data, `"non_mem_w":`, `"non_mem_w":1`))
	})
	// A relock window closes only through one pending mc.relock_done
	// per channel; the container, taken at an epoch boundary, has no
	// relock in flight.
	t.Run("relocking without pending relock completions", func(t *testing.T) {
		mismatch(t, tamper(t, data, `"bus_freq":`, `"relocking":true,"bus_freq":`))
	})
	t.Run("pending relock completion without relocking", func(t *testing.T) {
		mismatch(t, tamper(t, data, `"kind":"mc.refresh_tick"`, `"kind":"mc.relock_done"`))
	})
	t.Run("legacy operating point", func(t *testing.T) {
		// Images before schema 1.3 carry the operating point in every
		// channel (the pinned container runs all four at 533 MHz). A
		// device clock other than the bus frequency, or one channel at
		// another frequency, is a state the simulator cannot produce.
		legacy, err := os.ReadFile(filepath.Join("testdata", "ckpt-mem1-schema1.1.bin"))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ name, old, new string }{
			{"dev_freq 0", `"dev_freq":533`, `"dev_freq":0`},
			{"dev_freq 123", `"dev_freq":533`, `"dev_freq":123`},
			{"channels disagree", `"bus_freq":533,"dev_freq":533`, `"bus_freq":800,"dev_freq":800`},
		} {
			t.Run(tc.name, func(t *testing.T) { mismatch(t, tamper(t, legacy, tc.old, tc.new)) })
		}
	})

	// The controller's request counts are derived from its bank
	// records, so on a container taken mid-run with requests in flight
	// a raised count is a state the simulator cannot hold.
	busyRC := RunConfig{Mix: "MEM1", Policy: "MemScale", Epochs: 4, Cores: 4, Channels: 2}
	var busy bytes.Buffer
	if _, err := CheckpointRun(ctx, busyRC, 2, &busy); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`"dispatched":\[\[[0-9,\[\]]*[1-9]`).Match(busy.Bytes()) {
		t.Fatal("mid-run container has no dispatched requests")
	}
	for _, tc := range []struct {
		field, number string // number matches the first count, in its last group
		raise         int
	}{
		{"outstanding", `"outstanding":\[(\d+)`, 3},
		{"pending", `"pending":\[\[(\d+)`, 5},
		{"dispatched", `"dispatched":\[\[(\d+)`, 1},
		{"wb_count", `"wb_count":(\d+)`, 40},
	} {
		t.Run(tc.field+" raised", func(t *testing.T) {
			m := regexp.MustCompile(tc.number).FindSubmatch(busy.Bytes())
			if m == nil {
				t.Fatalf("%s not found in container", tc.field)
			}
			n, err := strconv.Atoi(string(m[1]))
			if err != nil {
				t.Fatal(err)
			}
			old := string(m[0])
			bad := tamper(t, busy.Bytes(), old, old[:len(old)-len(m[1])]+strconv.Itoa(n+tc.raise))
			_, err = ResumeRun(ctx, bytes.NewReader(bad), busyRC.Epochs)
			if !errors.Is(err, ErrInvalidConfig) || !errors.Is(err, sim.ErrStateMismatch) ||
				!strings.Contains(err.Error(), tc.field+" ") {
				t.Fatalf("err = %v, want ErrInvalidConfig wrapping a state mismatch naming %s", err, tc.field)
			}
		})
	}
}

// TestCheckpointRunInterruptible: a pre-fired stop channel halts the
// run at its first epoch boundary with ErrInterrupted, the container
// written at the stop boundary resumes, and the resumed total is
// bit-identical to the cold uninterrupted run — the single-run face of
// the fleet's transparent-recovery contract.
func TestCheckpointRunInterruptible(t *testing.T) {
	ctx := context.Background()
	rc := RunConfig{Mix: "MID1", Policy: "MemScale", Epochs: 3, Cores: 4, Channels: 2}

	stop := make(chan struct{})
	close(stop)
	var buf bytes.Buffer
	_, err := CheckpointRunInterruptible(ctx, rc, 0, stop, &buf)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no checkpoint written on interrupt")
	}

	cold, err := RunContext(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeRun(ctx, bytes.NewReader(buf.Bytes()), rc.Epochs)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "interrupt-resumed run", cold, resumed)

	// A nil stop channel must behave exactly like CheckpointRun.
	var full bytes.Buffer
	sum, err := CheckpointRunInterruptible(ctx, rc, 0, nil, &full)
	if err != nil {
		t.Fatal(err)
	}
	bitdiff.Same(t, "uninterrupted run", cold, sum)
}
