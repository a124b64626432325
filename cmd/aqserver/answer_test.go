package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestAnswerBytesSharedByMissAndHit: a hit is written from the bytes its
// miss stored, so outside the leading cache block the two bodies are the
// same bytes; the content is field for field what encoding the maps gave
// (matrix sizes included, although the retained result has no matrix), with
// and without zones and explain, on /v1/query and under /v1/jobs/{id}.
func TestAnswerBytesSharedByMissAndHit(t *testing.T) {
	s := testServer(t)
	const prefix = `{"cache":{`
	afterCache := func(t *testing.T, body []byte) []byte {
		t.Helper()
		end := bytes.IndexByte(body, '}')
		if !bytes.HasPrefix(body, []byte(prefix)) || end < 0 {
			t.Fatalf("answer does not start with the cache block: %.80s", body)
		}
		return body[end+1:]
	}
	for _, zones := range []string{"false", "true"} {
		req := `{"category":"hospital","cost":"GAC","budget":0.2,"model":"OLS","seed":77,"include_zones":` + zones + `}`
		miss := postQuery(s, "/v1/query", req)
		hit := postQuery(s, "/v1/query", req)
		if miss.Code != http.StatusOK || hit.Code != http.StatusOK {
			t.Fatalf("status %d / %d: %s", miss.Code, hit.Code, hit.Body.String())
		}
		var m, h map[string]interface{}
		if err := json.Unmarshal(miss.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(hit.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		if zones == "false" {
			if m["cache"].(map[string]interface{})["hit"] != false {
				t.Fatalf("first answer: %v", m["cache"])
			}
		}
		if h["cache"].(map[string]interface{})["hit"] != true {
			t.Fatalf("repeat is not a hit: %v", h["cache"])
		}
		if !bytes.Equal(afterCache(t, miss.Body.Bytes()), afterCache(t, hit.Body.Bytes())) {
			t.Errorf("include_zones=%s: hit body differs from its miss outside the cache block", zones)
		}
		want := []string{"cache", "elapsed_ms", "fairness", "matrix_full", "matrix_trips", "reduction_pct", "spqs", "walk_only_share"}
		if zones == "true" {
			want = append(want, "zones")
		}
		for _, k := range want {
			if _, ok := h[k]; !ok {
				t.Errorf("include_zones=%s: answer lacks %q", zones, k)
			}
		}
		if len(h) != len(want) {
			t.Errorf("include_zones=%s: answer has %d fields, want %d: %v", zones, len(h), len(want), h)
		}
		if h["matrix_trips"].(float64) <= 0 || h["matrix_full"].(float64) < h["matrix_trips"].(float64) {
			t.Errorf("matrix sizes %v / %v", h["matrix_trips"], h["matrix_full"])
		}

		// explain is per request and changes nothing else.
		ex := postQuery(s, "/v1/query?explain=1", req)
		var e map[string]interface{}
		if err := json.Unmarshal(ex.Body.Bytes(), &e); err != nil {
			t.Fatalf("explain answer: %v: %s", err, ex.Body.String())
		}
		if _, ok := e["explain"].(map[string]interface{}); !ok {
			t.Errorf("explain=1 answer lacks the report")
		}
		delete(e, "explain")
		delete(e, "cache")
		delete(h, "cache")
		if !reflect.DeepEqual(e, h) {
			t.Errorf("explain=1 changed the answer's other fields")
		}
	}

	// The job view nests the same object under "result".
	var jobs struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(do(s, http.MethodGet, "/v1/jobs", "").Body.Bytes(), &jobs); err != nil || len(jobs.Jobs) == 0 {
		t.Fatalf("job listing: %v", err)
	}
	rec := do(s, http.MethodGet, "/v1/jobs/"+jobs.Jobs[0].ID, "")
	var job struct {
		Result map[string]interface{} `json:"result"`
		Cache  map[string]interface{} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
		t.Fatalf("%v: %s", err, rec.Body.String())
	}
	if _, ok := job.Result["matrix_trips"]; !ok || job.Cache == nil || job.Result["zones"] != nil {
		t.Errorf("job body: result %v cache %v", job.Result, job.Cache)
	}
}
