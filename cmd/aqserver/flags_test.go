package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"accessquery/internal/bank"
)

// TestServerFlags pins aqserver's knob set: every flag name and its
// default. A new knob, or a changed default, is an edit here, and every
// knob must be documented in README.
func TestServerFlags(t *testing.T) {
	want := map[string]string{
		"city":              "coventry",
		"cities":            "",
		"scale":             "0.25",
		"addr":              "127.0.0.1:8321",
		"debug-addr":        "",
		"workers":           "2",
		"queue":             "32",
		"cache-size":        "64",
		"cache-ttl":         "10m0s",
		"job-timeout":       "2m0s",
		"breaker-threshold": "5",
		"breaker-cooldown":  "15s",
		"fault-spec":        "",
		"drain-timeout":     "30s",
		"parallelism":       strconv.Itoa(runtime.GOMAXPROCS(0)),
		"bank":              "true",
		"bank-capacity":     strconv.Itoa(bank.DefaultCapacity),
		"slow-query":        "0s",
		"slo":               "",
		"slo-burn-trip":     "14.4",
		"captures":          "32",
		"capture-dir":       "",
		"snapshot-dir":      "snapshots",
		"log-level":         "info",
		"version":           "false",
	}
	if len(want) != 25 {
		t.Fatalf("the pinned set has %d flags, want 25", len(want))
	}
	fs := flag.NewFlagSet("aqserver", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("flag -%s is gone", name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, want %q", name, g, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unpinned flag -%s", name)
		}
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for name := range want {
		if !strings.Contains(string(readme), "`-"+name+"`") {
			t.Errorf("README does not document `-%s`", name)
		}
	}

	// Nothing logs below info, so a debug level would change nothing.
	fs = flag.NewFlagSet("aqserver", flag.ContinueOnError)
	if _, err := parseFlags(fs, []string{"-log-level", "debug"}); err == nil {
		t.Error("-log-level debug accepted")
	}
}

// TestParseFlagsBinds checks that flags land on the config fields the
// server is built from, not on copies.
func TestParseFlagsBinds(t *testing.T) {
	fs := flag.NewFlagSet("aqserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, []string{
		"-workers", "7", "-job-timeout", "3s", "-slow-query", "1s", "-slo-burn-trip", "2",
		"-captures", "3", "-capture-dir", "caps", "-bank-capacity", "9",
		"-scale", "0.5", "-parallelism", "4", "-bank=false",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.serve.Workers != 7 || c.serve.JobTimeout.String() != "3s" ||
		c.serve.SlowQueryThreshold.String() != "1s" || c.serve.BurnTripThreshold != 2 {
		t.Errorf("serve config = %+v", c.serve)
	}
	if c.capture.MaxCaptures != 3 || c.capture.Dir != "caps" {
		t.Errorf("capture config = %+v", c.capture)
	}
	if c.bank.Capacity != 9 || c.bankOn {
		t.Errorf("bank config = %+v, on = %v", c.bank, c.bankOn)
	}
	if c.registry.Scale != 0.5 || c.registry.Parallelism != 4 {
		t.Errorf("registry options = %+v", c.registry)
	}
}
