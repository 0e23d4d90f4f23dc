// Package bitdiff is test support for the reproduction's central
// claim: the same run done another way gives the same bits. Diff walks
// two values of one type and reports the first place they differ. It
// compares every float by math.Float64bits, so -0 differs from 0 and
// nothing passes on a tolerance, and it compares a telemetry export as
// its canonical JSONL. Only _test.go files import this package.
package bitdiff

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"memscale/internal/telemetry"
)

// Diff returns the path and values of the first place a and b differ,
// or "" when they are bit-identical. A path names fields from the top
// value down ("Res.CPI[3]", "FreqSeconds[800]"); a path in
// skip is not compared, and neither is anything under it. Functions and
// channels are not compared.
func Diff(a, b any, skip ...string) string {
	return walker(skip).diff(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

// Same fails t unless a and b are bit-identical outside skip.
func Same(t testing.TB, what string, a, b any, skip ...string) {
	t.Helper()
	if d := Diff(a, b, skip...); d != "" {
		t.Errorf("%s: differs at %s", what, d)
	}
}

// CanonicalJSONL renders e as JSONL with its host-clock observations
// zeroed: the per-epoch HostNs and the epoch_host histogram record how
// long the host took, which differs between any two runs; everything
// else in the stream is simulated state. e itself is left unchanged.
func CanonicalJSONL(e *telemetry.RunExport) ([]byte, error) {
	if e == nil {
		return nil, nil
	}
	c := *e
	c.Epochs = append([]telemetry.EpochSnapshot(nil), e.Epochs...)
	for i := range c.Epochs {
		c.Epochs[i].HostNs = 0
	}
	c.Histograms = append([]*telemetry.Histogram(nil), e.Histograms...)
	for i, h := range c.Histograms {
		if h.Name == "epoch_host" {
			c.Histograms[i] = telemetry.NewHistogram(h.Name, h.Unit, h.Bounds)
			break
		}
	}
	var buf bytes.Buffer
	err := telemetry.WriteJSONL(&buf, &c)
	return buf.Bytes(), err
}

var exportType = reflect.TypeOf((*telemetry.RunExport)(nil))

// walker holds the skipped paths.
type walker []string

func (w walker) diff(a, b reflect.Value, path string) string {
	if slices.Contains(w, path) {
		return ""
	}
	at, dot := path, path+"."
	if path == "" {
		at, dot = "value", ""
	}
	switch {
	case a.IsValid() != b.IsValid():
		return at + ": nil vs non-nil"
	case !a.IsValid():
		return ""
	case a.Type() != b.Type():
		return fmt.Sprintf("%s: type %v vs %v", at, a.Type(), b.Type())
	case a.Type() == exportType:
		return diffJSONL(a.Interface().(*telemetry.RunExport), b.Interface().(*telemetry.RunExport), at)
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", at,
				a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := w.diff(a.Field(i), b.Field(i), dot+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", at, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := w.diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d entries", at, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			key := fmt.Sprintf("%s[%v]", path, it.Key())
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return key + ": missing"
			}
			if d := w.diff(it.Value(), bv, key); d != "" {
				return d
			}
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() != b.IsNil() {
			return at + ": nil vs non-nil"
		}
		if !a.IsNil() {
			return w.diff(a.Elem(), b.Elem(), path)
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
	default: // booleans, strings and integers
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", at, a, b)
		}
	}
	return ""
}

// diffJSONL compares two exports by their canonical JSONL, line by
// line.
func diffJSONL(a, b *telemetry.RunExport, at string) string {
	ja, erra := CanonicalJSONL(a)
	jb, errb := CanonicalJSONL(b)
	if err := errors.Join(erra, errb); err != nil {
		return fmt.Sprintf("%s: %v", at, err)
	}
	la, lb := strings.Split(string(ja), "\n"), strings.Split(string(jb), "\n")
	return walker(nil).diff(reflect.ValueOf(la), reflect.ValueOf(lb), at+".jsonl")
}
