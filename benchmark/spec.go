package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the single source of truth for
// workload names, metric names, units and regression bounds: the harness
// emits a metric only through emitter.set, which takes the unit from here
// and refuses a name the file does not list.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the module root (the
// directory holding go.mod and BENCHMARK.json). The driver starts the
// benchmark at the root; `go test` starts it in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod with BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one reported number in the driver's result format.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emitter collects one run's metrics against one section of the spec.
type emitter struct {
	specs   []metricSpec
	metrics map[string]metric
	// samples records how many observations stand behind each value.
	samples map[string]int
}

func newEmitter(specs []metricSpec) *emitter {
	return &emitter{specs: specs, metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric; n is the number of samples behind the value.
func (e *emitter) set(name string, value float64, n int) {
	for _, s := range e.specs {
		if s.Name == name {
			if _, dup := e.metrics[name]; dup {
				panic("benchmark: metric emitted twice: " + name)
			}
			e.metrics[name] = metric{Value: value, Unit: s.Unit}
			e.samples[name] = n
			return
		}
	}
	panic("benchmark: metric not in BENCHMARK.json: " + name)
}

// missing lists the spec's metrics the run did not emit.
func (e *emitter) missing() []string {
	var out []string
	for _, s := range e.specs {
		if _, ok := e.metrics[s.Name]; !ok {
			out = append(out, s.Name)
		}
	}
	return out
}
