package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The repo-root openapi.yaml is the API contract. This test keeps it and
// the served mux in lockstep without a YAML dependency: it hand-parses the
// paths: section, then checks (a) every resource in apiSurface is
// documented and (b) every documented path resolves to /healthz or an
// apiSurface pattern — the only routes the mux mounts besides its 404
// fallback.

// docPaths parses openapi.yaml's paths: section into path → block lines.
func docPaths(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "openapi.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	// Paths may themselves contain a colon (the :activate operation), so
	// the key is everything up to the final colon on the line.
	pathKey := regexp.MustCompile(`^  (/\S*):\s*$`)
	paths := make(map[string][]string)
	inPaths := false
	current := ""
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "paths:":
			inPaths = true
			continue
		case inPaths && len(line) > 0 && line[0] != ' ': // next top-level key
			inPaths = false
		}
		if !inPaths {
			continue
		}
		if m := pathKey.FindStringSubmatch(line); m != nil {
			current = m[1]
			paths[current] = nil
			continue
		}
		if current != "" {
			paths[current] = append(paths[current], line)
		}
	}
	if len(paths) == 0 {
		t.Fatal("no paths parsed from openapi.yaml")
	}
	return paths
}

func TestOpenAPICoversSurface(t *testing.T) {
	paths := docPaths(t)

	want := []string{"/healthz"}
	for _, rt := range apiSurface {
		want = append(want, rt.docPaths...)
	}
	for _, p := range want {
		if _, ok := paths[p]; !ok {
			t.Errorf("openapi.yaml does not document %s", p)
		}
	}
}

func TestOpenAPIPathsResolve(t *testing.T) {
	paths := docPaths(t)
	mux, ok := (&server{}).routes().(*http.ServeMux)
	if !ok {
		t.Fatal("routes() no longer returns a *http.ServeMux; rewrite this walk")
	}
	mounted := map[string]bool{"/healthz": true}
	for _, rt := range apiSurface {
		mounted[rt.pattern] = true
	}
	sub := strings.NewReplacer("{name}", "coventry", "{id}", "1")
	for p := range paths {
		req := httptest.NewRequest(http.MethodGet, sub.Replace(p), nil)
		if _, pattern := mux.Handler(req); !mounted[pattern] {
			t.Errorf("documented path %s resolves to %q, not to /healthz or an apiSurface pattern", p, pattern)
		}
	}
}
