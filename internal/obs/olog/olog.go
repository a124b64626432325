// Package olog is a minimal structured JSON logger for the serving stack.
// Every line is one JSON object — timestamp, level, message, then fields
// in the order they were given — so logs can be grepped by humans and
// parsed by machines without a logging framework dependency:
//
//	{"ts":"2026-08-06T12:00:00.000Z","level":"info","msg":"ready","zones":253}
//
// Loggers are leveled and composable: With returns a child logger whose
// bound fields (a job ID, a trace ID) stamp every line it emits, which is
// how per-request context flows into logs without threading loggers
// through every call.
package olog

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities.
type Level int32

// Levels, least to most severe.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
	levelFatal // emitted by Fatal only; not a settable minimum
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	case levelFatal:
		return "fatal"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

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

// Field is one key/value pair of a log line.
type Field struct {
	Key   string
	Value any
}

// F returns a Field; the short name keeps call sites readable.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Err returns the conventional error field. A nil error yields a zero
// Field, which log lines skip — Err(err) is safe to pass unconditionally.
func Err(err error) Field {
	if err == nil {
		return Field{}
	}
	return Field{Key: "error", Value: err.Error()}
}

// Logger emits JSON lines at or above its minimum level. Safe for
// concurrent use; lines are written atomically under a mutex shared with
// all loggers derived from the same root.
type Logger struct {
	mu   *sync.Mutex
	w    io.Writer
	min  *atomic.Int32
	base []Field
	now  func() time.Time
}

// New returns a logger writing to w at minimum level min.
func New(w io.Writer, min Level) *Logger {
	l := &Logger{mu: &sync.Mutex{}, w: w, min: &atomic.Int32{}, now: time.Now}
	l.min.Store(int32(min))
	return l
}

// Default is the process-wide logger: stderr at info.
var Default = New(os.Stderr, LevelInfo)

// SetLevel changes the minimum level, affecting this logger and every
// logger sharing its root (With children).
func (l *Logger) SetLevel(min Level) {
	if l == nil {
		return
	}
	l.min.Store(int32(min))
}

// Enabled reports whether lines at level would be emitted. A nil logger
// reports false, so a nil *Logger behaves as "no logging".
func (l *Logger) Enabled(level Level) bool {
	return l != nil && int32(level) >= l.min.Load()
}

// With returns a child logger that stamps fields onto every line. The
// child shares the parent's writer, mutex, and level.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	child := *l
	child.base = append(append([]Field(nil), l.base...), fields...)
	return &child
}

// Info logs at info level.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error logs at error level.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

// Fatal logs at fatal level and exits the process with status 1. For use
// in main functions, mirroring log.Fatal.
func (l *Logger) Fatal(msg string, fields ...Field) {
	l.log(levelFatal, msg, fields)
	osExit(1)
}

// osExit is swapped in tests.
var osExit = os.Exit

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	// Build the line outside the lock; only the final write serializes.
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"ts":"`...)
	buf = l.now().UTC().AppendFormat(buf, "2006-01-02T15:04:05.000Z07:00")
	buf = append(buf, `","level":"`...)
	buf = append(buf, level.String()...)
	buf = append(buf, `","msg":`...)
	buf = appendJSON(buf, msg)
	for _, f := range l.base {
		buf = appendField(buf, f)
	}
	for _, f := range fields {
		buf = appendField(buf, f)
	}
	buf = append(buf, "}\n"...)
	l.mu.Lock()
	_, _ = l.w.Write(buf)
	l.mu.Unlock()
}

func appendField(buf []byte, f Field) []byte {
	if f.Key == "" { // zero Field, e.g. Err(nil)
		return buf
	}
	buf = append(buf, ',')
	buf = appendJSON(buf, f.Key)
	buf = append(buf, ':')
	return appendJSON(buf, f.Value)
}

// appendJSON marshals v onto buf, degrading to a quoted error string for
// unmarshalable values so a bad field can never lose a log line.
func appendJSON(buf []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("!marshal: %v", err))
	}
	return append(buf, b...)
}
