package memctrl

import (
	"encoding/json"
	"testing"

	"memscale/internal/config"
	"memscale/internal/event"
)

// FuzzControllerStateLoad feeds arbitrary controller images to Load on
// one of two geometries. The contract: Load either returns an error or
// leaves a controller whose own Save image Load accepts again, and
// neither call panics.
func FuzzControllerStateLoad(f *testing.F) {
	geometries := []func(*config.Config){oneChannel, fastPDPair}
	for i, mutate := range geometries {
		_, st := queuedImage(f, mutate)
		raw, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), raw)
	}
	f.Add(uint8(0), []byte(`{}`))
	f.Add(uint8(1), []byte(`{"channels":[{},{}],"ranks":[[],[]]}`))

	f.Fuzz(func(t *testing.T, geometry uint8, data []byte) {
		cfg := config.Default()
		geometries[int(geometry)%len(geometries)](&cfg)
		var st ControllerState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		c := New(&cfg, &event.Queue{})
		if _, err := c.Load(&st, doneFor(&cfg)); err != nil {
			return
		}
		tbl := NewRequestTable()
		again := c.Save(tbl)
		again.Requests = tbl.States()
		raw, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		if _, err := New(&cfg, &event.Queue{}).Load(decodeImage(t, raw), doneFor(&cfg)); err != nil {
			t.Fatalf("re-saved image rejected: %v", err)
		}
	})
}
