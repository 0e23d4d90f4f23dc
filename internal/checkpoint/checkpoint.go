// Package checkpoint serializes full simulation state to a versioned
// container, in the spirit of gem5's checkpoints: capture every
// stateful layer at an epoch boundary and restore it bit-identically,
// so a long run can resume where it stopped instead of starting over.
//
// The container is two JSON lines: a header naming the format and its
// schema version, then the payload. JSON keeps the format inspectable
// and diffable; Go's float64 encoding is shortest-round-trip, so every
// accumulator restores to the exact bit pattern it was saved with.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memscale/internal/config"
	"memscale/internal/sim"
)

// Magic identifies the container format on the header line.
const Magic = "memscale-checkpoint"

// SchemaVersion is the container format version ("MAJOR.MINOR"). A
// minor bump keeps every older container readable; a major bump means
// the payload shapes changed incompatibly. Decode accepts any
// container whose major version matches and rejects the rest with a
// *SchemaVersionError.
//
// 1.1 added the header's payload_crc32 integrity field; 1.0 containers
// (no CRC) remain readable.
//
// 1.2 dropped the controller's per-channel counter sets: a 1.2 image
// carries only the one controller-wide set. Readers older than 1.2
// reject 1.2 images (their controller Load finds no per-channel sets).
// 1.2 readers load 1.0 and 1.1 images, which already carry the
// controller-wide set beside the per-channel ones, by ignoring the
// legacy key.
//
// 1.3 stores the controller's operating point once instead of in every
// channel, and adds the meta horizon. 1.3 readers load older images
// only when their channels' copies agree (memctrl.Controller.Load).
const SchemaVersion = "1.3"

// ErrCorruptCheckpoint reports container bytes that do not parse as a
// checkpoint: truncation, wrong magic, malformed JSON. Matched with
// errors.Is.
var ErrCorruptCheckpoint = errors.New("corrupt checkpoint")

// ErrInterrupted reports a run stopped early by a soft-stop signal
// (SIGINT/SIGTERM, an Interrupt channel) after capturing its state at
// the epoch boundary it halted on. The shared sentinel under the
// runner's and fleet's own interrupted errors; matched with errors.Is.
var ErrInterrupted = errors.New("run interrupted")

// SchemaVersionError reports a checkpoint written by an incompatible
// (different-major) schema version; match it with errors.As.
type SchemaVersionError struct {
	Version string // the container's schema_version
}

// Error implements error.
func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("checkpoint schema version %q is incompatible with reader version %q",
		e.Version, SchemaVersion)
}

// schemaMajor returns the MAJOR component of a version string; the
// whole string when there is no dot.
func schemaMajor(v string) string {
	if i := strings.IndexByte(v, '.'); i >= 0 {
		return v[:i]
	}
	return v
}

// header is the container's first line. PayloadCRC32 is the IEEE
// CRC-32 of the whitespace-trimmed payload line; it is omitted when
// zero (and by 1.0 writers), and Decode only verifies it when present,
// so legacy containers stay readable while any bit flip in the payload
// of a current container is caught before the JSON layer can
// misinterpret it.
type header struct {
	Magic         string `json:"magic"`
	SchemaVersion string `json:"schema_version"`
	PayloadCRC32  uint32 `json:"payload_crc32,omitempty"`
}

// payloadCRC is the integrity sum over the payload line, computed on
// the whitespace-trimmed bytes so a trailing-newline difference between
// write and read paths cannot fail verification.
func payloadCRC(body []byte) uint32 {
	return crc32.ChecksumIEEE(bytes.TrimSpace(body))
}

// Meta identifies the run a checkpoint was taken from: enough to
// rebuild the trace streams and governor around the restored state
// without re-deriving them from flags.
type Meta struct {
	// Mix is the workload mix name the streams were built from.
	Mix string `json:"mix"`

	// Policy names the scheme that wrote the container; a resume runs
	// under it and nothing else.
	Policy string `json:"policy,omitempty"`

	// Gamma is the allowed performance degradation the run used.
	Gamma float64 `json:"gamma,omitempty"`

	// NonMem is the calibrated rest-of-system power (watts). Decode
	// rejects a value that is not positive.
	NonMem float64 `json:"non_mem_w"`

	// Horizon is the run length, in epochs, of the baseline that
	// calibrated NonMem; a resume rejects a NonMem that differs from
	// that calibration in any bit. Containers before schema 1.3 do not
	// record it, and a resume of one skips the check.
	Horizon int `json:"horizon,omitempty"`

	// Epochs is the number of OS epochs completed at the snapshot.
	Epochs int `json:"epochs"`
}

// Checkpoint is one captured simulation: identity, the exact
// configuration it ran under, and the full state image.
type Checkpoint struct {
	Meta   Meta          `json:"meta"`
	Config config.Config `json:"config"`

	// Base is the configuration before the policy's Configure hook ran
	// — the one the unmanaged baseline pairs against. A resume must
	// calibrate its baseline from Base, not Config, to reproduce the
	// cold run's pairing exactly.
	Base config.Config `json:"base_config"`

	State *sim.SystemState `json:"state"`
}

// Encode writes ck to w in the versioned two-line container format,
// stamping the payload's CRC-32 into the header.
func Encode(w io.Writer, ck *Checkpoint) error {
	body, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	hdr, err := json.Marshal(header{
		Magic:         Magic,
		SchemaVersion: SchemaVersion,
		PayloadCRC32:  payloadCRC(body),
	})
	if err != nil {
		return err
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	_, err = w.Write(append(body, '\n'))
	return err
}

// Decode parses a container written by Encode. Corrupted or truncated
// bytes and a meta non_mem_w that is not positive yield an error
// wrapping ErrCorruptCheckpoint; a container from an incompatible
// schema major version yields a *SchemaVersionError;
// a container from a fault-injected run yields an error wrapping
// sim.ErrStateMismatch. Decode never panics, whatever the input.
func Decode(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	hdrLine, err := br.ReadBytes('\n')
	if err != nil && (err != io.EOF || len(hdrLine) == 0) {
		return nil, fmt.Errorf("%w: missing header: %v", ErrCorruptCheckpoint, err)
	}
	var hdr header
	if err := json.Unmarshal(hdrLine, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorruptCheckpoint, err)
	}
	if hdr.Magic != Magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrCorruptCheckpoint, hdr.Magic, Magic)
	}
	if schemaMajor(hdr.SchemaVersion) != schemaMajor(SchemaVersion) {
		return nil, &SchemaVersionError{Version: hdr.SchemaVersion}
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, fmt.Errorf("%w: container has no payload", ErrCorruptCheckpoint)
	}
	if hdr.PayloadCRC32 != 0 {
		if got := payloadCRC(body); got != hdr.PayloadCRC32 {
			return nil, fmt.Errorf("%w: payload CRC32 %08x, header says %08x",
				ErrCorruptCheckpoint, got, hdr.PayloadCRC32)
		}
	}
	// Containers written while the simulator had a fault-injection
	// plane name the run's disturbance schedule in meta.faults. This
	// simulator cannot replay that schedule, and resuming without it
	// would silently continue a different run.
	var payload struct {
		Checkpoint
		Meta struct {
			Meta
			Faults json.RawMessage `json:"faults"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptCheckpoint, err)
	}
	if f := payload.Meta.Faults; len(f) > 0 && string(f) != "null" {
		return nil, fmt.Errorf("%w: container was written by a fault-injected run, which this simulator cannot replay",
			sim.ErrStateMismatch)
	}
	ck := &payload.Checkpoint
	ck.Meta = payload.Meta.Meta
	if ck.State == nil {
		return nil, fmt.Errorf("%w: payload carries no state", ErrCorruptCheckpoint)
	}
	// Every writer calibrates NonMem from a baseline's positive DIMM
	// power, and a resume accounts the run's rest-of-system energy at it.
	// (JSON carries no NaN or infinity.)
	if ck.Meta.NonMem <= 0 {
		return nil, fmt.Errorf("%w: meta non_mem_w %g is not a positive power", ErrCorruptCheckpoint, ck.Meta.NonMem)
	}
	return ck, nil
}

// WriteFile writes the checkpoint to path atomically: it encodes into
// a temporary file in the same directory, syncs it to disk and renames
// it over path, so a crash or a full disk mid-write never leaves a
// truncated container where a resumable one was expected. A failed
// write leaves whatever was at path untouched and no temporary file
// behind.
func WriteFile(path string, ck *Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	// The mode a plain file write would give the container.
	err = tmp.Chmod(0o644)
	if err == nil {
		err = Encode(tmp, ck)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
