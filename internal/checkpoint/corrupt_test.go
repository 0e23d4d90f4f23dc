package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memscale/internal/event"
	"memscale/internal/memctrl"
	"memscale/internal/sim"
)

func validContainer(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	ck := &Checkpoint{
		Meta:  Meta{Mix: "MID1", Policy: "MemScale", Epochs: 4, NonMem: 18.5},
		State: &sim.SystemState{Events: &event.State{}, MC: &memctrl.ControllerState{}},
	}
	if err := Encode(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadStart returns the offset of the payload line.
func payloadStart(t *testing.T, data []byte) int {
	t.Helper()
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		t.Fatal("container has no header newline")
	}
	return i + 1
}

func TestDecodeRejectsTruncated(t *testing.T) {
	data := validContainer(t)
	// Every truncation point inside the payload must yield a typed
	// corruption error — JSON truncation, CRC mismatch, or missing
	// payload — never a panic or silent acceptance.
	// (Cutting only the trailing newline is not corruption — the CRC is
	// computed over trimmed bytes — so the deepest cut removes content.)
	for _, cut := range []int{payloadStart(t, data), payloadStart(t, data) + 1,
		len(data) / 2, len(data) - 2} {
		_, err := Decode(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncated at %d/%d: want ErrCorruptCheckpoint, got %v", cut, len(data), err)
		}
	}
}

func TestDecodeRejectsHeaderOnly(t *testing.T) {
	data := validContainer(t)
	hdr := data[:payloadStart(t, data)]
	for _, in := range [][]byte{hdr, []byte(strings.TrimRight(string(hdr), "\n"))} {
		_, err := Decode(bytes.NewReader(in))
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("header-only container: want ErrCorruptCheckpoint, got %v", err)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	data := validContainer(t)
	start := payloadStart(t, data)
	// Flip one bit at every byte of the payload. With the CRC stamped
	// in the header, every flip must be rejected typed — including the
	// flips that would still be syntactically valid JSON.
	for i := start; i < len(data); i++ {
		if data[i] == '\n' {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x04
		if _, err := Decode(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at byte %d survived decode: err=%v", i, err)
		}
	}
}

func TestDecodeAcceptsLegacyNoCRC(t *testing.T) {
	data := validContainer(t)
	body := data[payloadStart(t, data):]
	legacy := []byte(`{"magic":"memscale-checkpoint","schema_version":"1.0"}` + "\n")
	legacy = append(legacy, body...)
	ck, err := Decode(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("1.0 container without CRC rejected: %v", err)
	}
	if ck.Meta.Mix != "MID1" {
		t.Fatalf("legacy decode lost meta: %+v", ck.Meta)
	}
}

func TestDecodeRejectsWrongCRC(t *testing.T) {
	data := validContainer(t)
	body := data[payloadStart(t, data):]
	bad := []byte(`{"magic":"memscale-checkpoint","schema_version":"1.1","payload_crc32":1}` + "\n")
	bad = append(bad, body...)
	if _, err := Decode(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("wrong header CRC accepted: err=%v", err)
	}
}

func TestEncodeDecodeRoundTripWithCRC(t *testing.T) {
	data := validContainer(t)
	ck, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	var again bytes.Buffer
	if err := Encode(&again, ck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Fatal("re-encoded container differs from original")
	}
	if !bytes.Contains(data[:payloadStart(t, data)], []byte("payload_crc32")) {
		t.Fatal("header carries no payload_crc32")
	}
}

// TestDecodeMetaHorizon: the meta horizon round-trips, and a meta
// without it (every container before schema 1.3) decodes with zero.
func TestDecodeMetaHorizon(t *testing.T) {
	data := validContainer(t)
	ck, err := Decode(bytes.NewReader(data))
	if err != nil || ck.Meta.Horizon != 0 {
		t.Fatalf("meta without horizon: decoded %+v, err %v", ck, err)
	}
	ck.Meta.Horizon = 4
	var buf bytes.Buffer
	if err := Encode(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(&buf); err != nil || got.Meta.Horizon != 4 {
		t.Errorf("horizon 4: decoded %+v, err %v", got, err)
	}
}

// TestWriteFileFailedEncodeKeepsContainer: a write that fails partway
// (here the encode: JSON has no NaN) leaves the container already at
// the path byte-identical and no temporary file behind; a write that
// succeeds leaves a container readable like a plain file write's.
func TestWriteFileFailedEncodeKeepsContainer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	ck := &Checkpoint{
		Meta:  Meta{Mix: "MID1", Policy: "MemScale", Epochs: 4, NonMem: 18.5},
		State: &sim.SystemState{Events: &event.State{}, MC: &memctrl.ControllerState{}},
	}
	if err := WriteFile(path, ck); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, validContainer(t)) {
		t.Fatal("WriteFile wrote other bytes than Encode")
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o644 {
		t.Errorf("container mode = %v, want 0644", fi.Mode().Perm())
	}

	bad := *ck
	bad.Meta.NonMem = math.NaN()
	if err := WriteFile(path, &bad); err == nil {
		t.Fatal("WriteFile encoded a NaN non_mem_w")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed write changed the existing container")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".ckpt-*")); len(left) != 0 {
		t.Errorf("failed write left %v behind", left)
	}
}
