package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// healthzTimeout is how long a booted server may take to answer
	// /healthz before the harness refuses to continue.
	healthzTimeout = 30 * time.Second
	// clockTick is the kernel's USER_HZ, the unit of utime and stime in
	// /proc/<pid>/stat; it is 100 on every Linux port Go supports.
	clockTick = 100
)

// buildServer compiles cmd/aqserver from the checkout's own source into
// the benchmark's output directory. Build time is not part of setup_s.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "aqserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/aqserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aqserver: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one aqserver subprocess on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	args   []string
	stderr string // path of the file holding the process's stderr
	exited chan struct{}
}

// serverArgs are the flags the benchmark sets. Everything else is the
// program's production default (coventry at scale 0.25, 2 workers, bank
// on, 64-entry result cache); scale is passed only by the smoke test.
func serverArgs(addr, snapDir string, scale float64) []string {
	args := []string{"-addr", addr, "-snapshot-dir", snapDir, "-log-level", "warn"}
	if scale != defaultScale {
		args = append(args, "-scale", strconv.FormatFloat(scale, 'g', -1, 64))
	}
	return args
}

// startServer boots the binary on a free loopback port and waits for
// /healthz; boot is the time from exec to the first healthy answer.
func startServer(ctx context.Context, bin, outDir, label string, scale float64) (s *server, boot time.Duration, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s = &server{
		base:   "http://" + addr,
		args:   serverArgs(addr, filepath.Join(outDir, "snapshots"), scale),
		stderr: filepath.Join(outDir, "server-"+label+".stderr"),
		exited: make(chan struct{}),
	}
	logf, err := os.OpenFile(s.stderr, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child keeps its own descriptor
	s.cmd = exec.Command(bin, s.args...)
	s.cmd.Stderr = logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant: stop() kills on purpose
		close(s.exited)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(healthzTimeout)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("aqserver exited during start-up\n%s", s.stderrTail())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("aqserver not healthy after %s\n%s", healthzTimeout, s.stderrTail())
		}
	}
}

// stop terminates the subprocess and returns once it has exited: SIGTERM
// first so the server drains, SIGKILL if it lingers.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// stderrTail returns the end of the server's stderr for failure reports.
func (s *server) stderrTail() string {
	raw, err := os.ReadFile(s.stderr)
	if err != nil {
		return ""
	}
	if len(raw) > 4096 {
		raw = raw[len(raw)-4096:]
	}
	return "--- " + s.stderr + " ---\n" + string(raw)
}

// cpuTime is the server's user+system CPU time so far, from
// /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis, after which utime and stime are the
	// 12th and 13th.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// peakRSSMB is the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
