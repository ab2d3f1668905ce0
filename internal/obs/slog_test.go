package obs_test

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"

	"raxmlcell/internal/obs"
)

func TestLevel(t *testing.T) {
	cases := []struct {
		verbose, quiet bool
		want           slog.Level
	}{
		{false, false, slog.LevelInfo},
		{true, false, slog.LevelDebug},
		{false, true, slog.LevelWarn},
		{true, true, slog.LevelWarn}, // quiet wins
	}
	for _, c := range cases {
		if got := obs.Level(c.verbose, c.quiet); got != c.want {
			t.Errorf("Level(%v, %v) = %v, want %v", c.verbose, c.quiet, got, c.want)
		}
	}
}

func TestNewLoggerStripsTimestamp(t *testing.T) {
	var buf bytes.Buffer
	log := obs.NewLogger(&buf, slog.LevelInfo)
	log.Info("campaign start", "jobs", 23)
	line := buf.String()
	if strings.Contains(line, "time=") {
		t.Fatalf("timestamp not stripped: %q", line)
	}
	if !strings.Contains(line, "msg=\"campaign start\"") || !strings.Contains(line, "jobs=23") {
		t.Fatalf("unexpected line: %q", line)
	}

	buf.Reset()
	log.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug leaked through Info level: %q", buf.String())
	}
}

func TestDiscard(t *testing.T) {
	log := obs.Discard()
	log.Error("dropped", "k", "v") // must not panic or write anywhere
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger claims to be enabled")
	}
}
