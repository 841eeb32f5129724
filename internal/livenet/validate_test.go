package livenet

import (
	"math"
	"strings"
	"testing"
	"time"
)

// goodConfig is a baseline that passes Validate; each table case below
// mutates exactly one aspect of it.
func goodConfig() Config {
	return Config{
		ID:      0,
		F:       1,
		Listen:  "127.0.0.1:9000",
		Peers:   map[int]string{1: "127.0.0.1:9001", 2: "127.0.0.1:9002", 3: "127.0.0.1:9003"},
		SyncInt: 2 * time.Second,
		MaxWait: 500 * time.Millisecond,
		WayOff:  time.Second,
	}
}

func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring of the error; "" means must pass
	}{
		{"baseline", func(c *Config) {}, ""},

		// Protocol intervals.
		{"zero SyncInt", func(c *Config) { c.SyncInt = 0 }, "SyncInt"},
		{"negative SyncInt", func(c *Config) { c.SyncInt = -time.Second }, "SyncInt"},
		{"zero MaxWait", func(c *Config) { c.MaxWait = 0 }, "MaxWait"},
		{"negative MaxWait", func(c *Config) { c.MaxWait = -time.Millisecond }, "MaxWait"},
		{"zero WayOff", func(c *Config) { c.WayOff = 0 }, "WayOff"},
		{"negative WayOff", func(c *Config) { c.WayOff = -time.Second }, "WayOff"},
		{"SyncInt below 2·MaxWait", func(c *Config) { c.SyncInt = c.MaxWait }, "2·MaxWait"},

		// Identity and quorum.
		{"negative F", func(c *Config) { c.F = -1 }, "fault budget"},
		{"negative ID", func(c *Config) { c.ID = -2 }, "node id"},
		{"ID above 32 bits", func(c *Config) { c.ID = math.MaxInt }, "node id"},
		{"peer ID above 32 bits", func(c *Config) { c.Peers[math.MaxInt] = "127.0.0.1:9009" }, "peer id"},
		{"self in peer table", func(c *Config) { c.Peers[0] = "127.0.0.1:9009" }, "own id"},
		{"below 3f+1", func(c *Config) { delete(c.Peers, 3) }, "3f+1"},

		// Addresses and ports.
		{"empty Listen", func(c *Config) { c.Listen = "" }, "Listen"},
		{"Listen without port", func(c *Config) { c.Listen = "127.0.0.1" }, "host:port"},
		{"Listen non-numeric port", func(c *Config) { c.Listen = "127.0.0.1:http" }, "non-numeric port"},
		{"Listen port out of range", func(c *Config) { c.Listen = "127.0.0.1:70000" }, "outside [0, 65535]"},
		{"Listen negative port", func(c *Config) { c.Listen = "127.0.0.1:-1" }, "port"},
		{"peer without port", func(c *Config) { c.Peers[2] = "10.0.0.2" }, "peer 2"},
		{"peer port out of range", func(c *Config) { c.Peers[1] = "10.0.0.1:99999" }, "peer 1"},
		{"metrics addr without port", func(c *Config) { c.Ops.MetricsAddr = "localhost" }, "Ops.MetricsAddr"},
		{"metrics addr bad port", func(c *Config) { c.Ops.MetricsAddr = "localhost:x" }, "Ops.MetricsAddr"},
		{"metrics addr ok", func(c *Config) { c.Ops.MetricsAddr = "127.0.0.1:0" }, ""},
		{"os-assigned listen port ok", func(c *Config) { c.Listen = "127.0.0.1:0" }, ""},

		// Transport-backed nodes skip socket-address checks entirely.
		{"transport ignores Listen", func(c *Config) {
			c.Transport = NewMemNetwork(MemNetworkConfig{}).Transport(0)
			c.Listen = ""
			c.Peers = map[int]string{1: MemAddr(1), 2: MemAddr(2), 3: MemAddr(3)}
		}, ""},

		// Retry/backoff knobs.
		{"negative retry attempts", func(c *Config) { c.Retry.Attempts = -1 }, "Retry.Attempts"},
		{"negative retry initial", func(c *Config) { c.Retry.Initial = -time.Millisecond }, "Retry.Initial"},
		{"retry initial above MaxWait", func(c *Config) { c.Retry.Initial = c.MaxWait * 2 }, "exceeds MaxWait"},
		{"shrinking multiplier", func(c *Config) { c.Retry.Multiplier = 0.5 }, "Multiplier"},
		{"negative jitter", func(c *Config) { c.Retry.Jitter = -0.1 }, "Jitter"},
		{"jitter of one", func(c *Config) { c.Retry.Jitter = 1 }, "Jitter"},
		{"retry defaults pass", func(c *Config) { c.Retry = RetryConfig{} }, ""},
		{"explicit retry passes", func(c *Config) {
			c.Retry = RetryConfig{Attempts: 4, Initial: 10 * time.Millisecond, Multiplier: 1.5, Jitter: 0.2}
		}, ""},

		// Peer-health knob.
		{"negative DarkAfter", func(c *Config) { c.DarkAfter = -1 }, "DarkAfter"},
		{"explicit DarkAfter passes", func(c *Config) { c.DarkAfter = 5 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goodConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted a config that should fail with %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}
