package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

// TestParseLevelAndLogger covers the -log-level and -log-format values the
// daemon accepts.
func TestParseLevelAndLogger(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "": slog.LevelInfo, " Info ": slog.LevelInfo,
		"warn": slog.LevelWarn, "WARNING": slog.LevelWarn, "error": slog.LevelError,
	} {
		if got, err := ParseLevel(in); err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
	for format, prefix := range map[string]string{"json": `{"time":`, "text": "time=", "other": "time="} {
		var b bytes.Buffer
		NewLogger(&b, slog.LevelInfo, format).Info("hello")
		if !strings.HasPrefix(b.String(), prefix) {
			t.Errorf("format %q logs %q", format, b.String())
		}
	}
}
