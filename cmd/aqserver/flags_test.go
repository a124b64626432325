package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"accessquery/internal/bank"
	"accessquery/internal/obs/olog"
)

// TestServerFlags pins aqserver's knob set: every flag name and its
// default. A new knob, or a changed default, is an edit here, and every
// knob must be documented in README.
func TestServerFlags(t *testing.T) {
	want := map[string]string{
		"cities":            "coventry",
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
	if len(want) != 24 {
		t.Fatalf("the pinned set has %d flags, want 24", len(want))
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

	// Nothing logs below info, so a debug level would change nothing; an
	// SLO clause for a city no tenant serves would govern nothing.
	for _, args := range [][]string{
		{"-log-level", "debug"},
		{"-cities", "coventry,birmingham", "-slo", "avail=99;leeds:avail=50"},
	} {
		fs = flag.NewFlagSet("aqserver", flag.ContinueOnError)
		if _, err := parseFlags(fs, args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestBootFailureIsOneFatalLine runs aqserver's main in a child process
// on flags it must refuse: it exits 1, and its whole stderr is one JSON
// line at the fatal level naming the cause.
func TestBootFailureIsOneFatalLine(t *testing.T) {
	if args := os.Getenv("AQSERVER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"aqserver"}, strings.Fields(args)...)
		main()
		t.Fatal("main returned")
	}
	for args, cause := range map[string]string{
		"-log-level debug": `unknown level "debug"`,
		"-cities coventry -slo avail=99;leeds:avail=50": `no tenant serves city "leeds"`,
		"-nope": "flag provided but not defined: -nope",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBootFailureIsOneFatalLine$")
		cmd.Env = append(os.Environ(), "AQSERVER_TEST_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Fatalf("%s: child exited with %v, want status 1; stderr %q", args, err, stderr.String())
		}
		var line map[string]any
		if err := json.Unmarshal(stderr.Bytes(), &line); err != nil {
			t.Fatalf("%s: stderr is not one JSON line: %q", args, stderr.String())
		}
		if line["level"] != "fatal" || line["msg"] != "bad flags" || !strings.Contains(fmt.Sprint(line["error"]), cause) {
			t.Errorf("%s: fatal line = %v, want bad flags naming %s", args, line, cause)
		}
	}
}

// TestHelpPrintsUsage runs aqserver's main in a child process with -h: it
// prints the flag usage on stderr and exits 0 without starting a server.
func TestHelpPrintsUsage(t *testing.T) {
	if os.Getenv("AQSERVER_TEST_HELP") != "" {
		os.Args = []string{"aqserver", "-h"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelpPrintsUsage$")
	cmd.Env = append(os.Environ(), "AQSERVER_TEST_HELP=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("child exited with %v, want status 0; stderr %q", err, stderr.String())
	}
	if out := stderr.String(); !strings.HasPrefix(out, "Usage of aqserver:") || !strings.Contains(out, "-cities") {
		t.Errorf("-h printed %q, want the flag usage", out)
	}
}

// TestHTTPErrorLogIsJSON checks that what net/http logs itself — here a
// superfluous WriteHeader — goes through the process logger as one JSON
// line, as the aqserver listeners' ErrorLog.
func TestHTTPErrorLogIsJSON(t *testing.T) {
	var buf bytes.Buffer
	old := logger
	logger = olog.New(&buf, olog.LevelInfo).With("component", "aqserver")
	defer func() { logger = old }()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusOK)
	}))
	srv.Config.ErrorLog = httpErrorLog()
	srv.Start()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close() // waits for the handler, so its log line is written

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("net/http's error is not one JSON line: %q", buf.String())
	}
	if line["level"] != "error" || line["component"] != "aqserver" ||
		!strings.HasPrefix(fmt.Sprint(line["msg"]), "http: superfluous response.WriteHeader call") {
		t.Errorf("line = %v", line)
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
		"-cities", "Coventry, birmingham", "-slo", "avail=99; Coventry :avail=50",
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
	if len(c.tenants) != 2 || c.tenants[0].Name != "coventry" || c.slo.For("coventry").AvailabilityPct != 50 {
		t.Errorf("tenants = %+v, coventry's SLO = %+v", c.tenants, c.slo.For("coventry"))
	}
}
