// Package olog fixes the serving stack's log line format over log/slog.
// Every line is one JSON object — timestamp, level, message, then bound
// fields and call fields in the order they were given — so logs can be
// grepped by humans and parsed by machines:
//
//	{"ts":"2026-08-06T12:00:00.000Z","level":"info","msg":"ready","zones":253}
//
// Callers log through *slog.Logger methods with key/value arguments; With
// binds per-request context (a job ID, a trace ID) to every line.
package olog

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Logger is the logger New returns.
type Logger = slog.Logger

// Level orders log severities.
type Level = slog.Level

// Levels, least to most severe. LevelFatal marks the last line of a
// process that exits on a boot failure; it is not a settable minimum.
const (
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
	LevelFatal = slog.LevelError + 4
)

// ParseLevel maps a level name ("info", "warn"/"warning", "error"),
// case-insensitively, to its Level. There is no debug level: nothing logs
// below info.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("olog: unknown level %q", s)
}

// New returns a logger writing one JSON line per record to w at minimum
// level min.
func New(w io.Writer, min Level) *Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: min, ReplaceAttr: lineShape}))
}

// Default is the process-wide logger: stderr at info.
var Default = New(os.Stderr, LevelInfo)

// lineShape rewrites slog's built-in keys into the line format — "ts" in
// UTC to the millisecond, lower-case level names, "fatal" for LevelFatal —
// and drops fields whose value is nil, so a nil error can be passed
// unconditionally and adds no field.
func lineShape(_ []string, a slog.Attr) slog.Attr {
	switch v := a.Value; {
	case a.Key == slog.TimeKey && v.Kind() == slog.KindTime:
		return slog.String("ts", v.Time().UTC().Format("2006-01-02T15:04:05.000Z07:00"))
	case v.Kind() != slog.KindAny:
		return a
	case v.Any() == nil:
		return slog.Attr{}
	}
	if l, ok := a.Value.Any().(slog.Level); ok && a.Key == slog.LevelKey {
		if l == LevelFatal {
			return slog.String(slog.LevelKey, "fatal")
		}
		return slog.String(slog.LevelKey, strings.ToLower(l.String()))
	}
	return a
}
