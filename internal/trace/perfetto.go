package trace

import (
	"encoding/json"
	"io"
	"math"
	"sort"

	"clocksync/internal/obs"
)

// WritePerfetto renders a recorded trace in the Chrome trace-event JSON
// format, loadable by Perfetto (ui.perfetto.dev) and chrome://tracing. Span
// records become complete ("X") events on a per-node track, carrying their
// span/parent IDs and numeric fields as args so a violating round can be
// followed down to the peer estimation that fed it; corrupt, release, round,
// skip and timeout events become instants ("i"). Sample records are omitted —
// bias vectors belong to the dashboard and tracestat's textual summary, not a
// span timeline.
//
// Times are exported in microseconds (the format's unit), node ids as both
// pid and tid so each node renders as one process track. Output is
// deterministic for a given input: events keep stream order and
// encoding/json sorts the args maps.
func WritePerfetto(w io.Writer, events []obs.Event) error {
	type traceEvent struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  *float64           `json:"dur,omitempty"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		S    string             `json:"s,omitempty"` // instant scope
		Args map[string]float64 `json:"args,omitempty"`
	}
	var out struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	out.DisplayTimeUnit = "ms"
	out.TraceEvents = []traceEvent{}
	for _, e := range events {
		switch e.Kind {
		case obs.KindSpan:
			args := make(map[string]float64, len(e.Fields)+2)
			for k, v := range e.Fields {
				if !math.IsInf(v, 0) && !math.IsNaN(v) {
					args[k] = v
				}
			}
			args["span_id"] = float64(e.Span)
			if e.Parent != 0 {
				args["parent_id"] = float64(e.Parent)
			}
			dur := e.Duration() * 1e6
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: e.Name, Ph: "X", Ts: e.At * 1e6, Dur: &dur,
				Pid: e.Node, Tid: e.Node, Args: args,
			})
		case obs.KindCorrupt, obs.KindRelease, obs.KindRound, obs.KindSkip, obs.KindTimeout, obs.KindAuthFail:
			var args map[string]float64
			if len(e.Fields) > 0 {
				args = make(map[string]float64, len(e.Fields))
				for k, v := range e.Fields {
					if !math.IsInf(v, 0) && !math.IsNaN(v) {
						args[k] = v
					}
				}
			}
			out.TraceEvents = append(out.TraceEvents, traceEvent{
				Name: e.Kind, Ph: "i", Ts: e.At * 1e6,
				Pid: e.Node, Tid: e.Node, S: "t", Args: args,
			})
		}
	}
	// Stable presentation: Perfetto does not require time order, but humans
	// diffing exports do. Sort by timestamp, keeping stream order for ties.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		return out.TraceEvents[i].Ts < out.TraceEvents[j].Ts
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}
