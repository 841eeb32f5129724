package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clocksync/internal/adversary"
	"clocksync/internal/des"
	"clocksync/internal/obs"
	"clocksync/internal/simtime"
	"clocksync/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// sampledMinute is the benchmark's sim_sampled_n1024 op at other sizes: one
// simulated minute in sparse-estimation mode on a reusable sharded simulator
// (lookahead = the default delay model's 5 ms minimum).
func sampledMinute(name string, n, f, k, shards int) Scenario {
	return Scenario{
		Name: name, N: n, F: f, SamplePeers: k,
		Duration: simtime.Minute, Theta: 2 * simtime.Minute,
		Rho: 1e-4, SyncInt: 10 * simtime.Second,
		ReuseSharded: des.NewSharded(0, shards, 5*simtime.Millisecond),
	}
}

// sampledFingerprint is one sharded run reduced to a line: traffic totals,
// events fired, and a SHA-256 over the bits of every sample's biases and of
// every node's Syncs / Skipped / LastDelta. Runs on two or more shards refuse
// every trace surface, so this digest is the finest identity they offer; a
// one-shard run can also be recorded (TestEventStreamOneShard).
func sampledFingerprint(t *testing.T, label string, s Scenario) string {
	t.Helper()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, sm := range res.Recorder.Samples() {
		for _, b := range sm.Biases {
			word(math.Float64bits(float64(b)))
		}
	}
	for _, st := range res.SyncStats {
		word(uint64(st.Syncs))
		word(uint64(st.Skipped))
		word(math.Float64bits(float64(st.LastDelta)))
	}
	return fmt.Sprintf("%s msgs=%d bytes=%d fired=%d sha256=%x\n",
		label, res.MsgsSent, res.BytesSent, s.ReuseSharded.Fired(), h.Sum(nil))
}

// TestSampledRunGolden pins the sampled, sharded estimation path bit for bit
// against testdata/sampled.golden: the benchmark's sim_sampled_n1024 scenario
// (n=1024, f=10, k=31, one shard, one simulator reused across seeds 1–3) and
// a three-shard n=64, k=7 run. Taken at the code before the per-node state
// became O(k); any refactor of harness, sampler, network or round scratch must
// reproduce it unmodified. Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestSampledRunGolden -update
func TestSampledRunGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three n=1024 cluster minutes")
	}
	var got strings.Builder
	big := sampledMinute("bench-sampled", 1024, 10, 31, 1)
	for seed := int64(1); seed <= 3; seed++ {
		big.Seed = seed
		got.WriteString(sampledFingerprint(t, fmt.Sprintf("n=1024 k=31 shards=1 seed=%d", seed), big))
	}
	small := sampledMinute("sampled-3shard", 64, 2, 7, 3)
	small.Seed = 1
	got.WriteString(sampledFingerprint(t, "n=64 k=7 shards=3 seed=1", small))

	path := filepath.Join("testdata", "sampled.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("sampled runs drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}

// streamScenario is the small seeded run whose recorded stream
// testdata/stream.golden pins: four nodes, one of them clock-smashed during
// [30 s, 60 s), ninety seconds, a sample every ten.
func streamScenario() Scenario {
	return Scenario{
		Name: "stream-golden", Seed: 1, N: 4, F: 1,
		Duration: 90 * simtime.Second, Theta: 2 * simtime.Minute,
		Rho: 1e-4, InitSpread: 100 * simtime.Millisecond,
		SamplePeriod: 10 * simtime.Second,
		Adversary: adversary.Schedule{Corruptions: []adversary.Corruption{{
			Node: 2, From: 30 * simtime.Time(simtime.Second), To: 60 * simtime.Time(simtime.Second),
			Behavior: adversary.ClockSmash{Offset: 5 * simtime.Second},
		}}},
	}
}

// recordStream runs s with one obs.JSONL sink on both the event and the span
// side and returns the bytes it wrote — what `syncsim -trace-out -trace-spans`
// records.
func recordStream(t *testing.T, s Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	s.EventSink, s.SpanSink = sink, sink
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventStreamGolden pins the recorded stream byte for byte — every event
// and span line of streamScenario, in emission order — against
// testdata/stream.golden. Any change to what the instrumented layers emit, or
// to how a record is encoded, shows up as a diff. Regenerate deliberately with:
//
//	go test ./internal/scenario -run TestEventStreamGolden -update
func TestEventStreamGolden(t *testing.T) {
	got := recordStream(t, streamScenario())
	path := filepath.Join("testdata", "stream.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recorded stream drifted from %s: %d bytes, want %d (regenerate with -update if intended; diff the two to see where)",
			path, len(got), len(want))
	}
}

// TestEventStreamOneShard: the serial engine is the one-shard engine, so
// streamScenario recorded on one shard — fresh, and twice on one reused
// engine — is testdata/stream.golden byte for byte.
func TestEventStreamOneShard(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "stream.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := streamScenario()
	fresh.Shards = 1
	reused := streamScenario()
	reused.ReuseSharded = des.NewSharded(0, 1, 5*simtime.Millisecond)
	for _, tc := range []struct {
		name string
		s    Scenario
	}{{"Shards=1", fresh}, {"reused, first run", reused}, {"reused, second run", reused}} {
		if got := recordStream(t, tc.s); !bytes.Equal(got, want) {
			t.Errorf("%s: recorded stream is %d bytes and differs from stream.golden's %d", tc.name, len(got), len(want))
		}
	}
}

// TestEventStreamTimeOrdered: a recording is written in the order things
// happened — every non-span record's `at` is no earlier than the one before
// it, break-ins and releases included. (Spans are written when they complete
// and carry their start, so they are exempt.)
func TestEventStreamTimeOrdered(t *testing.T) {
	events, err := trace.Read(bytes.NewReader(recordStream(t, streamScenario())))
	if err != nil {
		t.Fatal(err)
	}
	last, breakIns := math.Inf(-1), 0
	for i, e := range events {
		if e.Kind == obs.KindSpan {
			continue
		}
		if e.At < last {
			t.Errorf("record %d (%s at %v) is earlier than its predecessor at %v", i, e.Kind, e.At, last)
		}
		last = e.At
		if e.Kind == obs.KindCorrupt || e.Kind == obs.KindRelease {
			breakIns++
		}
	}
	if breakIns != 2 {
		t.Errorf("stream holds %d corrupt/release records, want 2", breakIns)
	}
}

// TestUnreachedReleaseNotRecorded: the stream says what happened, not what
// was scheduled — a release due after the horizon is not in it.
func TestUnreachedReleaseNotRecorded(t *testing.T) {
	s := streamScenario()
	s.Adversary.Corruptions[0].To = simtime.Time(2 * s.Duration)
	s.Observer = obs.NewObserver()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if c, r := res.EventCounts[obs.KindCorrupt], res.EventCounts[obs.KindRelease]; c != 1 || r != 0 {
		t.Errorf("recorded %d break-ins and %d releases, want 1 and 0", c, r)
	}
}
