package livenet

import (
	"encoding/json"
	"net/http"
	"time"

	"clocksync/internal/obs"
)

// The cluster status surface of the fleet telemetry plane. Every node with a
// metrics endpoint additionally serves:
//
//	GET /statusz — the node's one status document (also on GET /status, the
//	               operator URL): everything a fleet aggregator needs to
//	               merge this node into a cluster view — the current
//	               interval-valued reading *paired with the host wall clock
//	               at the same instant* (the seam that lets remote span
//	               timestamps be re-aligned onto the cluster timeline), the
//	               sync epoch, the last round's verdict and every peer's
//	               record.
//	GET /read    — the node's Reading alone (time, uncertainty, epoch), the
//	               HTTP/JSON counterpart of the binary serve wire for
//	               consumers that want interval-valued time over plain HTTP.
//	GET /spanz   — the node's recent spans (Ops.SpanBuffer ring) as a JSON
//	               array of trace-compatible records, the raw material for
//	               cross-node span joins.
//
// internal/telemetry scrapes all three together with /metrics.

// StatuszRound is the last completed round's verdict as served on /statusz.
type StatuszRound struct {
	AgeSec   float64 `json:"age_sec"`   // wall seconds since the round finished
	DeltaSec float64 `json:"delta_sec"` // applied adjustment (0 when skipped)
	Failed   int     `json:"failed"`    // peers that did not answer
	WayOff   bool    `json:"wayoff"`    // round took the recovery branch
	Skipped  bool    `json:"skipped"`   // round applied no adjustment
}

// StatuszPeer is one peer's health entry as served on /statusz.
type StatuszPeer struct {
	ID        int     `json:"id"`
	OffsetSec float64 `json:"last_offset_sec"`   // last measured C_peer − C_self
	AgeSec    float64 `json:"last_seen_age_sec"` // −1 before the first reply
	Replies   int     `json:"replies"`
	Failures  int     `json:"failures"`
	Dark      bool    `json:"dark"`
}

// Statusz is the node's status document, served on GET /statusz and
// GET /status.
//
// TimeUnixNano and WallUnixNano are taken at the same instant: their
// difference is the node's current correction (disciplined − host clock),
// which is what a fleet aggregator adds to this node's host-wall span
// timestamps to place them on the shared cluster timeline. UncertaintySec
// bounds how far that placement can be off while the node's Theorem 5
// envelope holds.
type Statusz struct {
	ID             int           `json:"id"`
	Epoch          uint64        `json:"epoch"`
	Syncs          int           `json:"syncs"`
	TimeUnixNano   int64         `json:"time_unix_nano"` // disciplined reading
	WallUnixNano   int64         `json:"wall_unix_nano"` // host clock, same instant
	UncertaintySec float64       `json:"uncertainty_sec"`
	OffsetSec      float64       `json:"offset_sec"` // (time − wall) in seconds
	LastAdjustSec  float64       `json:"last_adjust_sec"`
	LastRound      *StatuszRound `json:"last_round,omitempty"`
	Peers          []StatuszPeer `json:"peers"`
}

// Statusz builds the node's current status document from one acquisition of
// the node lock, every age measured from one instant.
func (n *Node) Statusz() Statusz {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	r := n.snap.Load().at(now)
	out := Statusz{
		ID:             n.cfg.ID,
		Epoch:          r.Epoch,
		Syncs:          n.syncs,
		TimeUnixNano:   r.Time.UnixNano(),
		WallUnixNano:   now.UnixNano(),
		UncertaintySec: r.Uncertainty.Seconds(),
		OffsetSec:      r.Time.Sub(now).Seconds(),
		LastAdjustSec:  n.last.Seconds(),
		Peers:          make([]StatuszPeer, 0, len(n.peers)),
	}
	if lr := n.lastRound; !n.lastRoundAt.IsZero() {
		out.LastRound = &StatuszRound{
			AgeSec:   now.Sub(n.lastRoundAt).Seconds(),
			DeltaSec: float64(lr.Delta),
			Failed:   lr.Failed,
			WayOff:   lr.Jumped,
			Skipped:  !lr.OK,
		}
	}
	nowU := unixSec(now)
	for _, p := range n.peers {
		age := -1.0
		if p.lastSeen != 0 {
			age = nowU - p.lastSeen
		}
		out.Peers = append(out.Peers, StatuszPeer{
			ID: p.id, OffsetSec: p.lastOffset.Seconds(), AgeSec: age,
			Replies: p.replies, Failures: p.failures, Dark: p.dark,
		})
	}
	return out
}

// marshalReading renders a Reading as the GET /read response body: the
// best-estimate instant in both machine (Unix nanoseconds) and human
// (RFC 3339) form, the uncertainty half-width in nanoseconds, and the epoch.
// The encoding is pinned by a golden test — it is a public wire surface.
func marshalReading(r Reading) ([]byte, error) {
	return json.Marshal(struct {
		TimeUnixNano  int64  `json:"time_unix_nano"`
		Time          string `json:"time"`
		UncertaintyNS int64  `json:"uncertainty_ns"`
		Epoch         uint64 `json:"epoch"`
	}{
		TimeUnixNano:  r.Time.UnixNano(),
		Time:          r.Time.UTC().Format(time.RFC3339Nano),
		UncertaintyNS: int64(r.Uncertainty),
		Epoch:         r.Epoch,
	})
}

// registerTelemetry adds the fleet-telemetry endpoints to the node's metrics
// mux. ServeMetrics calls it; the handlers are safe from any goroutine.
func (n *Node) registerTelemetry(mux *http.ServeMux) {
	writeJSON := func(w http.ResponseWriter, data []byte, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}
	status := func(w http.ResponseWriter, r *http.Request) {
		data, err := json.Marshal(n.Statusz())
		writeJSON(w, data, err)
	}
	mux.HandleFunc("/status", status)
	mux.HandleFunc("/statusz", status)
	mux.HandleFunc("/read", func(w http.ResponseWriter, r *http.Request) {
		data, err := marshalReading(n.Read())
		writeJSON(w, data, err)
	})
	mux.HandleFunc("/spanz", func(w http.ResponseWriter, r *http.Request) {
		var spans []obs.Span
		if n.spanRing != nil {
			spans = n.spanRing.Spans()
		}
		data, err := obs.MarshalSpans(spans)
		writeJSON(w, data, err)
	})
}
