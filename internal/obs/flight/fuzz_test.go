package flight_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/obs/flight"
	"repro/internal/par"
	"repro/internal/tensor"
)

// FuzzValidate feeds Validate a trace recorded by a small
// par.Stationary run (4x4x4, R 2, on a 2x1x2 grid) and corrupted
// copies of it: a fractional, string or huge pid, a fractional tid,
// negative or fractional words, a truncated document. Validate must
// never panic, and every trace it accepts must parse with integral
// pids and tids on every event and a non-negative integral args.words
// on every comm send and recv slice.
func FuzzValidate(f *testing.F) {
	dims, shape := []int{4, 4, 4}, []int{2, 1, 2}
	factors := tensor.RandomFactors(3, dims, 2)
	rec := flight.NewDistributed(4, 1<<10)
	flight.Enable(rec)
	_, err := par.Stationary(tensor.FromFactors(factors), factors, 1, shape)
	flight.Disable()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		f.Fatal(err)
	}
	trace := buf.Bytes()
	if _, err := flight.Validate(trace); err != nil {
		f.Fatalf("the recorded trace fails validation: %v", err)
	}
	f.Add(trace)
	for _, m := range [][2]string{
		{`"pid": 1,`, `"pid": 1.5,`},
		{`"pid": 1,`, `"pid": "1",`},
		{`"pid": 1,`, `"pid": 1e300,`},
		{`"tid": 0,`, `"tid": 0.25,`},
		{`"words": `, `"words": -`},
		{`"words": `, `"words": 0.`},
	} {
		f.Add(bytes.ReplaceAll(trace, []byte(m[0]), []byte(m[1])))
	}
	f.Add(trace[:len(trace)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := flight.Validate(data); err != nil {
			return
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted a trace that does not parse: %v", err)
		}
		for i, ev := range doc.TraceEvents {
			for _, key := range []string{"pid", "tid"} {
				if v, ok := ev[key].(float64); !ok || v != math.Trunc(v) || math.Abs(v) > 1<<53 { //repro:bitwise integrality is exact
					t.Fatalf("accepted event %d with %s %v", i, key, ev[key])
				}
			}
			if ev["ph"] != "X" || ev["cat"] != "comm" || ev["name"] != "send" && ev["name"] != "recv" {
				continue
			}
			args, _ := ev["args"].(map[string]any)
			if w, ok := args["words"].(float64); !ok || w < 0 || w != math.Trunc(w) || w > 1<<53 { //repro:bitwise integrality is exact
				t.Fatalf("accepted comm %v event %d with words %v", ev["name"], i, args["words"])
			}
		}
	})
}
