package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"accessquery/internal/serve"
)

// The repo-root openapi.yaml is the API contract. These tests keep it and
// apiSurface in lockstep in both directions without a YAML dependency:
// they hand-parse the paths: section into (path, method) pairs, then check
// (a) every apiSurface entry is documented under its path with its method
// key and (b) every documented pair resolves through the mux to exactly
// that entry.

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

// docOps parses docPaths' blocks into path → documented methods (upper
// case, as in a mux pattern).
func docOps(t *testing.T) map[string][]string {
	t.Helper()
	methodKey := regexp.MustCompile(`^    (get|put|post|delete|patch|head|options):\s*$`)
	ops := make(map[string][]string)
	for path, block := range docPaths(t) {
		for _, line := range block {
			if m := methodKey.FindStringSubmatch(line); m != nil {
				ops[path] = append(ops[path], strings.ToUpper(m[1]))
			}
		}
		if len(ops[path]) == 0 {
			t.Errorf("openapi.yaml documents %s with no operation", path)
		}
	}
	return ops
}

// entryFor is the apiSurface pattern a documented operation must resolve
// to: a verb suffix on the last segment ({id}:activate) travels inside the
// wildcard, so it is not part of the pattern.
func entryFor(method, docPath string) string {
	if i := strings.LastIndex(docPath, ":"); i > strings.LastIndex(docPath, "/") {
		docPath = docPath[:i]
	}
	return method + " " + docPath
}

func TestOpenAPICoversSurface(t *testing.T) {
	documented := map[string]bool{}
	for path, methods := range docOps(t) {
		for _, m := range methods {
			documented[entryFor(m, path)] = true
		}
	}
	for _, rt := range apiSurface() {
		if !documented[rt.pattern] {
			t.Errorf("openapi.yaml does not document %s", rt.pattern)
		}
	}
}

func TestOpenAPIPathsResolve(t *testing.T) {
	mux, ok := (&server{}).routes().(*http.ServeMux)
	if !ok {
		t.Fatal("routes() no longer returns a *http.ServeMux; rewrite this walk")
	}
	entries := map[string]bool{}
	for _, rt := range apiSurface() {
		entries[rt.pattern] = true
	}
	sub := strings.NewReplacer("{name}", "coventry", "{id}", "1")
	for path, methods := range docOps(t) {
		for _, m := range methods {
			want := entryFor(m, path)
			if !entries[want] {
				t.Errorf("documented %s %s has no apiSurface entry %q", m, path, want)
				continue
			}
			req := httptest.NewRequest(m, sub.Replace(path), nil)
			if _, pattern := mux.Handler(req); pattern != want {
				t.Errorf("documented %s %s resolves to %q, want %q", m, path, pattern, want)
			}
		}
	}
}

// TestOpenAPIQueryBodyMatchesRequest holds the documented /v1/query body to
// serve.Request's json fields in both directions: DecodeRequest rejects
// every other field, so a documented field the struct lacks is a 400 and
// a field the document lacks is an option no client can find.
func TestOpenAPIQueryBodyMatchesRequest(t *testing.T) {
	fields := map[string]bool{}
	rt := reflect.TypeOf(serve.Request{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			fields[name] = true
		}
	}
	prop := regexp.MustCompile(`^\s+(\w+): \{`)
	documented := map[string]bool{}
	inProps := false
	for _, line := range docPaths(t)["/v1/query"] {
		if strings.TrimSpace(line) == "properties:" {
			inProps = true
			continue
		}
		if !inProps {
			continue
		}
		m := prop.FindStringSubmatch(line)
		if m == nil {
			break
		}
		documented[m[1]] = true
	}
	for name := range fields {
		if !documented[name] {
			t.Errorf("openapi.yaml's /v1/query body omits serve.Request field %q", name)
		}
	}
	for name := range documented {
		if !fields[name] {
			t.Errorf("openapi.yaml's /v1/query body documents %q, which serve.Request lacks", name)
		}
	}
}
