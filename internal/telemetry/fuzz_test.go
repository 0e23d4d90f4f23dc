package telemetry

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the interchange parser. The
// contract: ReadJSONL never panics — it returns an error or a list of
// runs — and whatever it accepts survives a write/read round trip.
func FuzzReadJSONL(f *testing.F) {
	var valid bytes.Buffer
	ex := &RunExport{
		Meta:     RunMeta{Mix: "MID1", Policy: "MemScale"},
		Counters: map[string]uint64{"decisions": 3},
		Epochs:   []EpochSnapshot{{Index: 0, Freq: 800}},
		Events:   []Event{{Kind: EvDecision, A: 800, B: 667}},
	}
	if err := WriteJSONL(&valid, ex); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"type":"run"}` + "\n"))
	f.Add([]byte(`{"type":"epoch","epoch":{}}` + "\n"))
	// "fault" is a kind older builds wrote and this reader no longer
	// knows.
	f.Add([]byte(`{"type":"event","event":{"kind":"fault"}}` + "\n"))
	f.Add([]byte(`{"type":"run","run":{"mix":"x"}}` + "\n" + `{"type":"unknown"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, runs...); err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(again) != len(runs) {
			t.Fatalf("round trip changed run count: %d != %d", len(again), len(runs))
		}
	})
}
