package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// maxTraces bounds how many sampled rows of a window become spans.
const maxTraces = 5000

// span is one timed interval of the traced run. Spans of one sampled
// row share a trace id (the row's generator stamp t0, unique per call);
// parent names the span that caused this one. Layer-replay spans carry
// the number of events (or calls) the timed loop handled, so a per-event
// cost is (end-start)/n.
type span struct {
	TraceID int64  `json:"trace_id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  string `json:"parent,omitempty"`
	N       int    `json:"n,omitempty"`
}

// spans turns the records of window w into spans, for every call whose
// row came back in a sampled notification:
//
//	event                      t0 → last notification
//	├─ gen.wait                due → send (the generator's own lateness)
//	├─ engine.call             send → the façade call returns (the ack)
//	├─ engine.precommit        t0 → the commit stamp (Tuple.TS / f.tstamp)
//	└─ engine.postcommit:<sub> commit stamp → notification, per subscriber
func (s *sut) spans(w window) []span {
	_, total, _ := s.events([]window{w})
	stride := total/maxTraces + 1
	calls := make(map[int64]callRec) // by the t0 stamped on the call's rows
	for _, p := range s.producers {
		for i, c := range p.calls {
			if c.due >= w.start && c.due < w.end && i%stride == 0 {
				calls[c.start] = c
			}
		}
	}
	last := make(map[int64]int64) // t0 → latest arrival
	var out []span
	for _, sub := range s.subs {
		sub.mu.Lock()
		for _, n := range sub.notes {
			c, ok := calls[n.t0]
			if !ok {
				continue
			}
			if _, seen := last[n.t0]; !seen {
				out = append(out,
					span{TraceID: n.t0, Name: "gen.wait", Start: c.due, End: c.send, Parent: "event"},
					span{TraceID: n.t0, Name: "engine.call", Start: c.send, End: c.ret, Parent: "event"},
					span{TraceID: n.t0, Name: "engine.precommit", Start: n.t0, End: n.ts, Parent: "event"})
			}
			out = append(out, span{TraceID: n.t0, Name: "engine.postcommit:" + sub.name, Start: n.ts, End: n.at, Parent: "event"})
			last[n.t0] = max(last[n.t0], n.at)
		}
		sub.mu.Unlock()
	}
	for t0, at := range last {
		out = append(out, span{TraceID: t0, Name: "event", Start: t0, End: at})
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
