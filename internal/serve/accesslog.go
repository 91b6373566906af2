package serve

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// accessEntry is one structured access-log record, emitted as a JSON
// line when the request finishes.
type accessEntry struct {
	Time    string  `json:"time"`
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Status  int     `json:"status"`
	DurMS   float64 `json:"dur_ms"`
	Bytes   int     `json:"bytes"`
	Remote  string  `json:"remote,omitempty"`
	Dedup   bool    `json:"dedup,omitempty"`   // served from a shared single-flight result
	Cached  bool    `json:"cached,omitempty"`  // replayed from the farm's persistent store
	Err     string  `json:"err,omitempty"`     // terminal error (client gone, queue full, ...)
	Timeout bool    `json:"timeout,omitempty"` // the per-request deadline fired
}

// accessLogger serializes entries onto one writer. A nil logger
// discards everything.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w}
}

func (l *accessLogger) log(e accessEntry) {
	if l == nil {
		return
	}
	if e.Time == "" {
		e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	l.logJSON(e)
}

// logJSON writes any record as one JSON line under the logger's lock
// (the shutdown flush shares the stream with access entries).
func (l *accessLogger) logJSON(v any) {
	if l == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	l.w.Write(data)
	l.mu.Unlock()
}

// shutdownEntry is the terminal record of a daemon's access log: the
// server-lifetime counter registry and every span still open at
// shutdown (truncated, including the "server" lifetime span). Before
// this record existed a graceful drain silently discarded the whole
// server-lifetime registry.
type shutdownEntry struct {
	Time      string           `json:"time"`
	Event     string           `json:"event"` // always "shutdown"
	UptimeSec float64          `json:"uptime_s"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	OpenSpans []obs.Span       `json:"open_spans,omitempty"`
}
