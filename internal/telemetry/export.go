package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"clocksync/internal/obs"
)

// spanNamespace returns the node whose span-id counter issued the id this
// span carries. Requester-side spans (round, estimate, query, ...) carry
// their own node's ids; reply/serve spans carry the *requester's* propagated
// id, so they belong to the origin's namespace.
func spanNamespace(e obs.Event) int {
	switch e.Name {
	case "reply", "serve":
		return int(e.Field("origin"))
	default:
		return e.Node
	}
}

// remapSpanID lifts a per-node span id into a fleet-unique one. Live nodes
// are separate processes whose span counters all start at 1, so a merged
// stream has colliding ids across nodes; conformance joins estimate spans to
// round spans by raw id, and a collision would stitch one node's estimates
// onto another's round. Shifting each namespace keeps ids unique
// fleet-wide while preserving every same-namespace relation — parent links
// and the cross-node reply/serve join alike.
func remapSpanID(ns int, id uint64) uint64 {
	if id == 0 {
		return 0
	}
	return uint64(ns+1)<<40 | id
}

// WriteJSONL renders the snapshot's merged span state as JSON lines in the
// obs.Event encoding — the stream cmd/tracestat consumes (including
// -conform, which replays the per-node round/estimate spans through the
// abstract spec and counts the telemetry spans). Spans are deduplicated
// (shared-observer deployments surface each span in every ring) and their
// ids namespaced per issuing node.
func WriteJSONL(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type spanKey struct {
		node int
		name string
		id   uint64
		at   float64
	}
	seen := make(map[spanKey]bool)
	for _, n := range snap.Ok() {
		for _, e := range n.Spans {
			if e.Kind != obs.KindSpan {
				continue
			}
			sk := spanKey{node: e.Node, name: e.Name, id: e.Span, at: e.At}
			if seen[sk] {
				continue
			}
			seen[sk] = true
			ns := spanNamespace(e)
			e.Span = remapSpanID(ns, e.Span)
			e.Parent = remapSpanID(ns, e.Parent)
			if err := enc.Encode(e); err != nil {
				return fmt.Errorf("telemetry: encoding span export: %w", err)
			}
		}
	}
	return bw.Flush()
}
