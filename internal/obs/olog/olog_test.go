package olog

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

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

// keysOf returns a JSON object line's keys in the order they were written.
func keysOf(t *testing.T, line string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	var keys []string
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestLineShape pins the line format: keys in order — ts, level, msg,
// bound fields, call fields — and their values, for an info line, the
// serving layer's slow-query warn line and a boot-failure fatal line.
func TestLineShape(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo).With("component", "aqserver")
	l.Info("ready", "cities", "coventry,birmingham", "zones", 253, "error", error(nil))
	l.Warn("slow query", "trace_id", "00000000000000000000000000000abc", "fingerprint", "f1",
		"seconds", 1.5, "threshold_seconds", 0.25, "city", "coventry",
		"stage_matrix_seconds", 0.125, "stage_labeling_seconds", 1.25, "error", errors.New("boom"))
	l.Log(context.Background(), LevelFatal, "bad flags", "error", errors.New(`-log-level: olog: unknown level "debug"`))

	want := []struct {
		keys   []string
		values map[string]any
	}{
		{
			[]string{"ts", "level", "msg", "component", "cities", "zones"},
			map[string]any{"level": "info", "msg": "ready", "component": "aqserver",
				"cities": "coventry,birmingham", "zones": 253.0},
		},
		{
			[]string{"ts", "level", "msg", "component", "trace_id", "fingerprint", "seconds",
				"threshold_seconds", "city", "stage_matrix_seconds", "stage_labeling_seconds", "error"},
			map[string]any{"level": "warn", "msg": "slow query", "component": "aqserver",
				"trace_id": "00000000000000000000000000000abc", "fingerprint": "f1", "seconds": 1.5,
				"threshold_seconds": 0.25, "city": "coventry", "stage_matrix_seconds": 0.125,
				"stage_labeling_seconds": 1.25, "error": "boom"},
		},
		{
			[]string{"ts", "level", "msg", "component", "error"},
			map[string]any{"level": "fatal", "msg": "bad flags", "component": "aqserver",
				"error": `-log-level: olog: unknown level "debug"`},
		},
	}
	ts := regexp.MustCompile(`^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z$`)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d: %q", len(lines), len(want), buf.String())
	}
	for i, line := range lines {
		if keys := keysOf(t, line); !reflect.DeepEqual(keys, want[i].keys) {
			t.Errorf("line %d keys = %q, want %q", i, keys, want[i].keys)
		}
		var got map[string]any
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatal(err)
		}
		if s, _ := got["ts"].(string); !ts.MatchString(s) {
			t.Errorf("line %d ts = %q, want UTC to the millisecond", i, got["ts"])
		}
		delete(got, "ts")
		if !reflect.DeepEqual(got, want[i].values) {
			t.Errorf("line %d = %v, want %v", i, got, want[i].values)
		}
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
}

func TestWithStampsFields(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, LevelInfo).With("component", "serve")
	l.Info("slow query", "seconds", 1.5)

	m := decodeLines(t, &buf)[0]
	if m["component"] != "serve" {
		t.Errorf("component = %v, want serve", m["component"])
	}
	if m["seconds"] != 1.5 {
		t.Errorf("seconds = %v, want 1.5", m["seconds"])
	}

	// Child loggers must not mutate the parent.
	buf.Reset()
	child := l.With("job", "j1")
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
	var nilErr error
	l.Error("query failed", "error", errors.New("boom"))
	l.Info("fine", "error", nilErr)
	l.With("error", nilErr).Info("fine too")

	lines := decodeLines(t, &buf)
	if lines[0]["error"] != "boom" {
		t.Errorf("error field = %v, want boom", lines[0]["error"])
	}
	for _, m := range lines[1:] {
		if _, ok := m["error"]; ok {
			t.Errorf("nil error emitted an error field: %v", m)
		}
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
	for _, in := range []string{"loud", "debug", "fatal"} {
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
				l.Info("msg", "goroutine", i, "iter", j)
			}
		}(i)
	}
	wg.Wait()
	// Every line must still be valid standalone JSON (no interleaving).
	if got := len(decodeLines(t, &buf)); got != 320 {
		t.Errorf("lines = %d, want 320", got)
	}
}
