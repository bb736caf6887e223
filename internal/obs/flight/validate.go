// Trace validation: a strict structural checker for the exported
// Chrome trace-event JSON, used by cmd/tracecheck, the ci.sh trace
// smoke, and the integration tests that pin the Eq. (14) schedule.
package flight

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary aggregates what Validate saw in a trace document.
type Summary struct {
	Events   int // total traceEvents entries
	Metadata int // ph "M"
	Spans    int // ph "X" (excluding comm send/recv markers)
	Instants int // ph "i"
	Flows    int // matched s/f pairs

	SendEvents map[int]int   // per pid: comm send slices
	RecvEvents map[int]int   // per pid: comm recv slices
	SendWords  map[int]int64 // per pid: words summed over send slices
	RecvWords  map[int]int64 // per pid: words summed over recv slices
}

// TotalSendWords sums SendWords over all pids.
func (s *Summary) TotalSendWords() int64 {
	var t int64
	for _, w := range s.SendWords {
		t += w //repro:ignore determinism integer accumulation is exact in any order
	}
	return t
}

// validPhases are the phase types the exporter emits.
var validPhases = map[string]bool{"M": true, "X": true, "i": true, "s": true, "f": true}

// Validate parses data as a Chrome trace-event JSON object, checks it
// against the subset of the trace-event schema the exporter emits
// (integral pids and tids, and a non-negative integral args.words on
// every comm send and recv slice), and verifies that every flow id has
// exactly one "s" and one "f" event with s.ts <= f.ts (Send→Recv pairs
// pair up exactly). It returns a traffic summary on success.
func Validate(data []byte) (*Summary, error) {
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("flight: trace is not valid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("flight: trace has no traceEvents array")
	}
	if doc.DisplayTimeUnit != "ms" && doc.DisplayTimeUnit != "ns" {
		return nil, fmt.Errorf("flight: displayTimeUnit %q (want ms or ns)", doc.DisplayTimeUnit)
	}

	sum := &Summary{
		SendEvents: map[int]int{},
		RecvEvents: map[int]int{},
		SendWords:  map[int]int64{},
		RecvWords:  map[int]int64{},
	}
	type flowHalf struct {
		sTS, fTS     float64
		haveS, haveF bool
	}
	flows := map[string]*flowHalf{}

	num := func(ev map[string]any, key string) (float64, bool) {
		v, ok := ev[key].(float64)
		return v, ok
	}
	str := func(ev map[string]any, key string) (string, bool) {
		v, ok := ev[key].(string)
		return v, ok
	}

	for i, ev := range doc.TraceEvents {
		ph, ok := str(ev, "ph")
		if !ok || !validPhases[ph] {
			return nil, fmt.Errorf("flight: event %d has missing or unsupported ph %v", i, ev["ph"])
		}
		pid, ok := integer(ev["pid"])
		if !ok {
			return nil, fmt.Errorf("flight: event %d (ph %s) has no integral pid", i, ph)
		}
		if _, ok := integer(ev["tid"]); !ok {
			return nil, fmt.Errorf("flight: event %d (ph %s) has no integral tid", i, ph)
		}
		sum.Events++
		switch ph {
		case "M":
			sum.Metadata++
			name, _ := str(ev, "name")
			if name != "process_name" && name != "thread_name" {
				return nil, fmt.Errorf("flight: event %d: metadata name %q", i, name)
			}
			continue
		}
		ts, ok := num(ev, "ts")
		if !ok || ts < 0 {
			return nil, fmt.Errorf("flight: event %d (ph %s) has missing or negative ts", i, ph)
		}
		switch ph {
		case "X":
			dur, ok := num(ev, "dur")
			if !ok || dur < 0 {
				return nil, fmt.Errorf("flight: event %d: X event needs dur >= 0", i)
			}
			name, _ := str(ev, "name")
			cat, _ := str(ev, "cat")
			if cat != "comm" || name != "send" && name != "recv" {
				sum.Spans++
				break
			}
			args, _ := ev["args"].(map[string]any)
			words, ok := integer(args["words"])
			if !ok || words < 0 {
				return nil, fmt.Errorf("flight: event %d: comm %s has no non-negative integral args.words", i, name)
			}
			if name == "send" {
				sum.SendEvents[int(pid)]++
				sum.SendWords[int(pid)] += words
			} else {
				sum.RecvEvents[int(pid)]++
				sum.RecvWords[int(pid)] += words
			}
		case "i":
			sum.Instants++
		case "s", "f":
			id, ok := str(ev, "id")
			if !ok || id == "" {
				return nil, fmt.Errorf("flight: event %d: flow %s without id", i, ph)
			}
			h := flows[id]
			if h == nil {
				h = &flowHalf{}
				flows[id] = h
			}
			if ph == "s" {
				if h.haveS {
					return nil, fmt.Errorf("flight: flow %q has more than one start event", id)
				}
				h.haveS, h.sTS = true, ts
			} else {
				if h.haveF {
					return nil, fmt.Errorf("flight: flow %q has more than one finish event", id)
				}
				if bp, _ := str(ev, "bp"); bp != "e" {
					return nil, fmt.Errorf("flight: flow finish %q without bp \"e\"", id)
				}
				h.haveF, h.fTS = true, ts
			}
		}
	}

	var ids []string
	for id := range flows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := flows[id]
		if !h.haveS || !h.haveF {
			return nil, fmt.Errorf("flight: flow %q is unpaired (start=%v finish=%v)", id, h.haveS, h.haveF)
		}
		if h.fTS < h.sTS {
			return nil, fmt.Errorf("flight: flow %q finishes at %v before it starts at %v", id, h.fTS, h.sTS)
		}
		sum.Flows++
	}
	return sum, nil
}

// integer reads a JSON number holding an integer no larger in
// magnitude than 2^53, the range a float64 holds exactly.
func integer(v any) (int64, bool) {
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) || math.Abs(f) > 1<<53 { //repro:bitwise integrality is exact
		return 0, false
	}
	return int64(f), true
}
