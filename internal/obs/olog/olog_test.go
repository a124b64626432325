package olog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// Discard swallows everything; useful as an explicit "no logging" value.
var Discard = New(io.Discard, LevelError+1)

// LevelDebug sits below every level the package logs at, so the filter
// tests can open the gate one step wider than info.
const LevelDebug = LevelInfo - 1

// Debug logs at debug level.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// decodeLines parses each JSON line the logger wrote.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestLineShape(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Info("server listening", F("addr", ":8080"), F("workers", 4))

	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	m := lines[0]
	if m["level"] != "info" || m["msg"] != "server listening" {
		t.Errorf("line = %v, want level=info msg=server listening", m)
	}
	if m["addr"] != ":8080" {
		t.Errorf("addr = %v, want :8080", m["addr"])
	}
	if m["workers"] != float64(4) {
		t.Errorf("workers = %v, want 4", m["workers"])
	}
	if _, ok := m["ts"].(string); !ok {
		t.Errorf("ts missing or not a string: %v", m["ts"])
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")

	lines := decodeLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (warn+error only)", len(lines))
	}
	if lines[0]["level"] != "warn" || lines[1]["level"] != "error" {
		t.Errorf("levels = %v, %v; want warn, error", lines[0]["level"], lines[1]["level"])
	}

	l.SetLevel(LevelDebug)
	if !l.Enabled(LevelDebug) {
		t.Error("Enabled(debug) = false after SetLevel(debug)")
	}
	buf.Reset()
	l.Debug("now visible")
	if len(decodeLines(t, &buf)) != 1 {
		t.Error("debug line suppressed after SetLevel(debug)")
	}
}

func TestWithStampsFields(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo).With(F("component", "serve"))
	l.Info("slow query", F("seconds", 1.5))

	m := decodeLines(t, &buf)[0]
	if m["component"] != "serve" {
		t.Errorf("component = %v, want serve", m["component"])
	}
	if m["seconds"] != 1.5 {
		t.Errorf("seconds = %v, want 1.5", m["seconds"])
	}

	// Child loggers must not mutate the parent.
	buf.Reset()
	child := l.With(F("job", "j1"))
	l.Info("parent line")
	child.Info("child line")
	lines := decodeLines(t, &buf)
	if _, ok := lines[0]["job"]; ok {
		t.Error("parent logger picked up child field")
	}
	if lines[1]["job"] != "j1" || lines[1]["component"] != "serve" {
		t.Errorf("child line = %v, want component+job", lines[1])
	}
}

func TestErrField(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	l.Error("query failed", Err(errors.New("boom")))
	l.Info("fine", Err(nil))

	lines := decodeLines(t, &buf)
	if lines[0]["error"] != "boom" {
		t.Errorf("error field = %v, want boom", lines[0]["error"])
	}
	if _, ok := lines[1]["error"]; ok {
		t.Error("nil error should not emit an error field")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"info": LevelInfo, "INFO": LevelInfo,
		"warn": LevelWarn, "warning": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"loud", "debug"} {
		if _, err := ParseLevel(in); err == nil {
			t.Errorf("ParseLevel(%s) should fail", in)
		}
	}
}

func TestConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				l.Info("msg", F("goroutine", i), F("iter", j))
			}
		}(i)
	}
	wg.Wait()
	// Every line must still be valid standalone JSON (no interleaving).
	if got := len(decodeLines(t, &buf)); got != 320 {
		t.Errorf("lines = %d, want 320", got)
	}
}

func TestFatalUsesExit(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo)
	var code int
	old := osExit
	osExit = func(c int) { code = c }
	defer func() { osExit = old }()

	l.Fatal("cannot bind", F("addr", ":80"))
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if m := decodeLines(t, &buf)[0]; m["level"] != "fatal" || m["msg"] != "cannot bind" {
		t.Errorf("fatal line = %v", m)
	}
}

func TestDiscardAndNilSafety(t *testing.T) {
	Discard.Info("dropped", F("k", "v")) // must not panic
	var l *Logger
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("nil logger panicked: %v", r)
		}
	}()
	l.Info("nil receiver")
	l.With(F("a", 1)).Warn("nil with")
	if l.Enabled(LevelError) {
		t.Error("nil logger should report disabled")
	}
	_ = fmt.Sprintf("%v", l)
}
