package main

// Server configuration and its validation. Flags that silently accepted
// garbage (negative waits, a memory budget too small to admit one session,
// a zero body cap) fail fast with a clear error instead of producing a
// daemon that rejects, hangs or loses every request.

import (
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"repro/internal/tpp"
)

// Config is everything a session-tier server is built from. main fills it
// from the flags; NewServer validates it, so a Config either yields a
// serving daemon or a flag-named error. Zero values keep their flag
// meanings, noted per field.
type Config struct {
	MaxConcurrent   int           // -max-concurrent: selection slots, divided across shards
	MaxBody         int64         // -max-body: request body cap in bytes
	RequestTimeout  time.Duration // -request-timeout: per-request selection cap (0 disables)
	MaxDatasetScale int           // -max-dataset-scale: dataset node cap (0 selects defaultMaxScale)
	SessionTTL      time.Duration // -session-ttl: idle eviction horizon (0 disables)
	QueueWait       time.Duration // -queue-wait: 429 once no slot frees this fast (0 queues until the deadline)
	Shards          int           // -shards: session shards
	MemBudget       int64         // -mem-budget: resident session bytes across shards (0 unlimited)
	DataDir         string        // -data-dir: session persistence (empty keeps sessions in memory)
	WALSync         bool          // -wal-sync: fsync each WAL append before the ack
	WALCompact      int           // -wal-compact: fold the WAL every N deltas (0 selects the default)
	Logger          *slog.Logger  // request and server log (nil selects slog.Default())
	SlowRequest     time.Duration // -slow-request: warn above this latency (0 disables)
}

// validateConfig rejects configurations that cannot serve: non-positive
// slot and body caps, negative durations and counts, and a -mem-budget that
// either has nowhere to spill (no -data-dir: live sessions would be
// discarded) or is so small a shard could not admit even one empty session
// (every create would 429 forever).
func validateConfig(cfg Config) error {
	if cfg.MaxConcurrent < 1 {
		return fmt.Errorf("-max-concurrent %d; need at least 1", cfg.MaxConcurrent)
	}
	if cfg.MaxBody < 1 {
		return fmt.Errorf("-max-body %d; need at least 1 byte or every request body is too large", cfg.MaxBody)
	}
	if cfg.QueueWait < 0 {
		return fmt.Errorf("-queue-wait %s is negative; use 0 to queue until the request deadline", cfg.QueueWait)
	}
	if cfg.SessionTTL < 0 {
		return fmt.Errorf("-session-ttl %s is negative; use 0 to disable idle eviction", cfg.SessionTTL)
	}
	if cfg.WALCompact < 0 {
		return fmt.Errorf("-wal-compact %d is negative; use 0 for the default threshold", cfg.WALCompact)
	}
	if cfg.Shards < 1 {
		return fmt.Errorf("-shards %d; need at least 1", cfg.Shards)
	}
	if cfg.MemBudget < 0 {
		return fmt.Errorf("-mem-budget %d is negative; use 0 to disable the budget", cfg.MemBudget)
	}
	if cfg.MemBudget > 0 {
		if cfg.DataDir == "" {
			return fmt.Errorf("-mem-budget %d needs -data-dir: spilled sessions would be discarded, not persisted", cfg.MemBudget)
		}
		min := tpp.MinSessionBytes * int64(cfg.Shards)
		if cfg.MemBudget < min {
			return fmt.Errorf("-mem-budget %d is smaller than one empty session per shard (%d bytes for %d shards); every create would be rejected",
				cfg.MemBudget, min, cfg.Shards)
		}
	}
	return nil
}

// parseByteSize parses a byte count with an optional binary suffix: plain
// digits, or digits followed by k/m/g (case-insensitive, KiB/MiB/GiB
// multiples). The empty string is 0.
func parseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g', 'G':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("byte size %q: want digits with an optional k/m/g suffix", s)
	}
	if n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}
