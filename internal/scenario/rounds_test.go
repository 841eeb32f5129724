package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/simtime"
)

// roundsScenarios are the two traced runs testdata/rounds.golden pins. Between
// them they reach every path of an estimation round: replies in time, replies
// lost to drops so that rounds end by their alarm, rounds a break-in aborts
// and rounds begun again after the release, over the full mesh and over a
// sampled peer set.
func roundsScenarios() []Scenario {
	run := func(name string, n, f, k int) Scenario {
		return Scenario{
			Name: name, Seed: 1, N: n, F: f, SamplePeers: k, DropProb: 0.15,
			Duration: 2 * simtime.Minute, Theta: 2 * simtime.Minute,
			Rho: 1e-4, InitSpread: 100 * simtime.Millisecond,
			Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
				Node: 3, From: simtime.Time(25 * simtime.Second), To: simtime.Time(70 * simtime.Second),
				Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second},
			}}},
		}
	}
	return []Scenario{run("rounds-serial", 7, 2, 0), run("rounds-sampled", 9, 1, 4)}
}

// TestRoundStreamGolden pins the estimation rounds of roundsScenarios byte for
// byte: per run, the SHA-256 of the recorded stream (events and spans), its
// record count and how many records mention a timeout, against
// testdata/rounds.golden. Any change to how a round numbers its pings, routes
// a reply, expires or records shows up as a diff. Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestRoundStreamGolden -update
func TestRoundStreamGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range roundsScenarios() {
		stream := recordStream(t, s)
		records, timeouts := 0, 0
		for _, line := range bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n")) {
			records++
			if bytes.Contains(line, []byte("timeout")) {
				timeouts++
			}
		}
		if timeouts == 0 {
			t.Errorf("%s: no record mentions a timeout — the run no longer reaches round expiry", s.Name)
		}
		fmt.Fprintf(&got, "%s n=%d f=%d k=%d records=%d timeouts=%d sha256=%x\n",
			s.Name, s.N, s.F, s.SamplePeers, records, timeouts, sha256.Sum256(stream))
	}
	path := filepath.Join("testdata", "rounds.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("round streams drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}
