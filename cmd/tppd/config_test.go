package main

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tpp"
)

func TestValidateConfig(t *testing.T) {
	valid := testConfig()
	valid.QueueWait = time.Second
	valid.SessionTTL = 30 * time.Minute
	valid.WALCompact = 256
	valid.Shards = 4
	valid.DataDir = t.TempDir()
	if err := validateConfig(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"negative queue-wait", func(c *Config) { c.QueueWait = -time.Second }, "-queue-wait"},
		{"negative session-ttl", func(c *Config) { c.SessionTTL = -time.Minute }, "-session-ttl"},
		{"negative wal-compact", func(c *Config) { c.WALCompact = -1 }, "-wal-compact"},
		{"zero shards", func(c *Config) { c.Shards = 0 }, "-shards"},
		{"negative mem-budget", func(c *Config) { c.MemBudget = -1 }, "-mem-budget"},
		{"mem-budget below one session", func(c *Config) { c.MemBudget = tpp.MinSessionBytes - 1; c.Shards = 1 }, "empty session"},
		{"mem-budget below one session per shard", func(c *Config) { c.MemBudget = tpp.MinSessionBytes * 2; c.Shards = 4 }, "empty session"},
		{"mem-budget without data-dir", func(c *Config) { c.MemBudget = 64 << 20; c.DataDir = "" }, "-mem-budget 67108864 needs -data-dir"},
		{"zero max-body", func(c *Config) { c.MaxBody = 0 }, "-max-body"},
		{"zero max-concurrent", func(c *Config) { c.MaxConcurrent = 0 }, "-max-concurrent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := validateConfig(cfg)
			if err == nil {
				t.Fatalf("config %+v accepted, want error mentioning %q", cfg, tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// Disabled (0) budgets and TTLs stay valid, and a budget of exactly one
	// empty session per shard is the floor, not an error.
	edge := valid
	edge.MemBudget = tpp.MinSessionBytes * int64(edge.Shards)
	if err := validateConfig(edge); err != nil {
		t.Fatalf("budget at the per-shard floor rejected: %v", err)
	}

	// NewServer validates before it builds anything: the error comes back
	// unchanged and no TTL janitor is left running behind it.
	t.Run("NewServer rejects before building", func(t *testing.T) {
		bad := valid
		bad.Shards = 0
		before := janitors()
		srv, err := NewServer(bad)
		if srv != nil || err == nil || err.Error() != validateConfig(bad).Error() {
			t.Fatalf("NewServer(%+v) = %v, %v; want nil and the validation error", bad, srv, err)
		}
		if after := janitors(); after != before {
			t.Fatalf("%d session janitors running after the rejected NewServer, %d before", after, before)
		}
	})
}

// janitors counts the session-store TTL janitor goroutines alive right now.
func janitors() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*sessionStore).janitor(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"4k", 4 << 10, false},
		{"4K", 4 << 10, false},
		{"64m", 64 << 20, false},
		{"2G", 2 << 30, false},
		{" 512m ", 512 << 20, false},
		{"-1", -1, false}, // sign is validateConfig's job, not the parser's
		{"12x", 0, true},
		{"k", 0, true},
		{"12.5m", 0, true},
		{"9999999999g", 0, true}, // overflow
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseByteSize(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseByteSize(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
