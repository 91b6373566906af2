package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is one Chrome trace-event object. Complete spans use
// ph "X" (ts + dur); open spans emit ph "B" only, which the viewers
// render as running off the right edge — visibly truncated rather than
// zero-length. Timestamps are microseconds since the process epoch.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceEvents renders a span stream in the Chrome trace-event JSON
// format, loadable in chrome://tracing and Perfetto. Every root span
// subtree is packed onto the first free lane (tid) whose previous
// occupant ended before it started, so a parallel run's cells lay out
// side by side like a flame chart — one lane per concurrently running
// worker — while nested child spans share their root's lane and nest by
// containment.
func WriteTraceEvents(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	var evbuf bytes.Buffer
	enc := json.NewEncoder(&evbuf)
	enc.SetEscapeHTML(false) // keep "size 10 -> 20" args readable

	// Greedy lane assignment over root spans; children inherit the lane.
	var laneEnd []int64 // per lane: end time (ns) of its last root
	lane := 0
	depthLane := make(map[int]int) // depth of current root chain -> lane
	first := true
	var stack []int // depths of open ancestors
	for i := range spans {
		sp := &spans[i]
		for len(stack) > 0 && stack[len(stack)-1] >= sp.Depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			end := sp.Start + int64(sp.Dur)
			lane = -1
			for l, e := range laneEnd {
				if e <= sp.Start {
					lane = l
					break
				}
			}
			if lane < 0 {
				lane = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[lane] = end
		} else {
			lane = depthLane[stack[len(stack)-1]]
		}
		depthLane[sp.Depth] = lane
		stack = append(stack, sp.Depth)

		ev := traceEvent{
			Name: sp.Name,
			Ph:   "X",
			Pid:  1,
			Tid:  lane,
			Ts:   float64(sp.Start) / 1e3,
		}
		if sp.Open {
			ev.Ph = "B"
			ev.Args = map[string]any{"truncated": true}
		} else {
			dur := float64(sp.Dur.Nanoseconds()) / 1e3
			ev.Dur = &dur
			ev.Args = spanArgs(sp)
		}
		evbuf.Reset()
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(bytes.TrimRight(evbuf.Bytes(), "\n"))
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// spanArgs carries the span's measurements into the viewer's detail
// pane. Keys are emitted only when the span recorded the value, and
// encoding/json sorts map keys, so the output is deterministic.
func spanArgs(sp *Span) map[string]any {
	args := map[string]any{}
	if sp.AllocBytes != 0 {
		args["alloc_bytes"] = sp.AllocBytes
	}
	if sp.Allocs != 0 {
		args["allocs"] = sp.Allocs
	}
	if sp.SizeBefore != 0 || sp.SizeAfter != 0 {
		args["size"] = fmt.Sprintf("%d -> %d", sp.SizeBefore, sp.SizeAfter)
	}
	if sp.CostBefore != 0 || sp.CostAfter != 0 {
		args["cost"] = fmt.Sprintf("%d -> %d", sp.CostBefore, sp.CostAfter)
	}
	if len(args) == 0 {
		return nil
	}
	return args
}
