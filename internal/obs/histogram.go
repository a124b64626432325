package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default histogram upper bounds in seconds, spanning
// sub-millisecond feature lookups to multi-minute engine runs. Sixteen
// buckets bound both memory and exposition size per series.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
	0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// HistogramMetric is a fixed-bucket latency histogram. Observations are two
// atomic adds (bucket + count) and one atomic float add (sum); there is no
// lock on the observe path, so it is safe and cheap under -race workloads.
type HistogramMetric struct {
	bounds []float64 // finite upper bounds, ascending; immutable
	counts []atomic.Int64
	inf    atomic.Int64 // observations above the last finite bound
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *HistogramMetric {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &HistogramMetric{
		bounds: b,
		counts: make([]atomic.Int64, len(b)),
	}
}

// Observe records one value (seconds for latency histograms). Negative
// values are clamped to zero so fake-clock skew cannot corrupt buckets.
func (h *HistogramMetric) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *HistogramMetric) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the total of all observed values.
func (h *HistogramMetric) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// write renders the histogram as cumulative _bucket series plus _sum and
// _count, with the le label appended after any constant labels.
func (h *HistogramMetric) write(w io.Writer, family, labels string) error {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		name := withLabel(family+"_bucket", labels, "le", formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s %d\n", name, cum); err != nil {
			return err
		}
	}
	cum += h.inf.Load()
	name := withLabel(family+"_bucket", labels, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", renderName(family+"_sum", labels), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", renderName(family+"_count", labels), h.count.Load())
	return err
}
