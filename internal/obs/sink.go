package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// FormatRemark renders one remark in the human format of the -remarks
// sink, e.g.
//
//	inline p2 main:eval @17 <- cell:car: accepted benefit=1840 cost=441 headroom=9559
//	inline p2 main:eval @19 <- cell:setcar: rejected illegal-arity
//
// The format contains no wall-clock data, so remark streams are
// byte-reproducible across identical compiles.
func FormatRemark(rm Remark) string {
	var b strings.Builder
	b.WriteString(rm.Kind)
	if rm.Pass > 0 {
		fmt.Fprintf(&b, " p%d", rm.Pass)
	}
	fmt.Fprintf(&b, " %s @%d", rm.Caller, rm.Site)
	if rm.Callee != "" {
		fmt.Fprintf(&b, " <- %s", rm.Callee)
	}
	if rm.Accepted {
		b.WriteString(": accepted")
	} else {
		fmt.Fprintf(&b, ": rejected %s", rm.Reason)
	}
	if rm.Benefit != 0 {
		fmt.Fprintf(&b, " benefit=%d", rm.Benefit)
	}
	if rm.Cost != 0 {
		fmt.Fprintf(&b, " cost=%d", rm.Cost)
	}
	if rm.Headroom != 0 {
		fmt.Fprintf(&b, " headroom=%d", rm.Headroom)
	}
	if rm.Detail != "" {
		fmt.Fprintf(&b, " -> %s", rm.Detail)
	}
	return b.String()
}

// WriteText renders the remark stream one line per remark.
func WriteText(w io.Writer, remarks []Remark) error {
	bw := bufio.NewWriter(w)
	for _, rm := range remarks {
		bw.WriteString(FormatRemark(rm))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteJSONL writes the remark stream as JSON Lines: one JSON object
// per remark per line, in emission order.
func WriteJSONL(w io.Writer, remarks []Remark) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rm := range remarks {
		if err := enc.Encode(rm); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeJSONL parses a JSONL remark stream produced by WriteJSONL.
func DecodeJSONL(r io.Reader) ([]Remark, error) {
	dec := json.NewDecoder(r)
	var out []Remark
	for {
		var rm Remark
		if err := dec.Decode(&rm); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: bad JSONL remark %d: %w", len(out), err)
		}
		out = append(out, rm)
	}
}

// WriteTrace renders the span stream as an indented phase tree with
// wall times and size/cost deltas, e.g.
//
//	frontend                 1.2ms
//	hlo                      8.4ms
//	  hlo/pass1/clone        0.9ms  size 412 -> 466  cost 21004 -> 28910
func WriteTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	width := 0
	for _, sp := range spans {
		if n := 2*sp.Depth + len(sp.Name); n > width {
			width = n
		}
	}
	for _, sp := range spans {
		indent := strings.Repeat("  ", sp.Depth)
		fmt.Fprintf(bw, "%-*s %8.2fms", width+2, indent+sp.Name, sp.Elapsed().Seconds()*1000)
		if sp.Open {
			bw.WriteString(" (open)")
		}
		if sp.SizeBefore != 0 || sp.SizeAfter != 0 {
			fmt.Fprintf(bw, "  size %d -> %d", sp.SizeBefore, sp.SizeAfter)
		}
		if sp.CostBefore != 0 || sp.CostAfter != 0 {
			fmt.Fprintf(bw, "  cost %d -> %d", sp.CostBefore, sp.CostAfter)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteSpansJSONL writes the span stream as JSON Lines, one span per
// line in Begin order — the flight-record format hloprof consumes.
// Spans still open carry "open":true (and a zero dur_ns that must not
// be read as a duration), so a truncated record is distinguishable
// from a phase that really took no time.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeSpansJSONL parses a JSONL span stream produced by
// WriteSpansJSONL.
func DecodeSpansJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: bad JSONL span %d: %w", len(out), err)
		}
		out = append(out, sp)
	}
}

// WriteCounters renders the counter registry one "name value" line per
// counter, sorted by name.
func WriteCounters(w io.Writer, counters []Counter) error {
	bw := bufio.NewWriter(w)
	width := 0
	for _, c := range counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, c := range counters {
		fmt.Fprintf(bw, "%-*s %d\n", width+2, c.Name, c.Value)
	}
	return bw.Flush()
}
