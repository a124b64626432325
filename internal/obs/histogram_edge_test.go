package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// Count returns the number of observations.
func (h *HistogramMetric) Count() int64 { return h.count.Load() }

// Label values with quotes, backslashes, and newlines must survive the
// parse → canonicalize → exposition round trip escaped, not raw: a raw
// newline in a series name corrupts the whole scrape.
func TestExpositionEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	hostile := "he\"llo\\world\n"
	name := fmt.Sprintf("aq_test_total{v=%q}", hostile)
	r.Counter(name).Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `aq_test_total{v="he\"llo\\world\n"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing escaped series:\nwant line %q\ngot:\n%s", want, out)
	}
	// One series line plus the TYPE header; and never a raw newline
	// inside a series name.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1") {
			t.Errorf("torn exposition line %q", line)
		}
	}
	// The same hostile value parses back to the same canonical metric.
	if again := r.Counter(fmt.Sprintf("aq_test_total{v=%q}", hostile)); again.Value() != 1 {
		t.Error("hostile label value did not round-trip to the same series")
	}
}
