package serve

import (
	"fmt"

	"accessquery/internal/obs"
)

// Serving-layer metrics in the process-wide registry. They deliberately
// parallel the per-manager Stats counters: Stats answers "what has this
// manager done since startup" over JSON, while these feed time-series
// scrapes (rates, saturation, queue-wait distributions) across however
// many managers the process runs. A family with a per-city breakdown
// (cityMetrics) has no unlabeled series: the process-wide total is
// sum without (city), and a second copy would count every event twice.
var (
	mCacheMisses = obs.Counter("aq_serve_cache_misses_total")
	mDedups      = obs.Counter("aq_serve_deduplicated_total")
	mRejected    = obs.Counter("aq_serve_rejected_total")
	mCancelled   = obs.Counter("aq_serve_cancelled_total")
	mEpochStale  = obs.Counter("aq_serve_epoch_stale_hits_total")

	mBreakerRejected = obs.Counter("aq_serve_breaker_rejected_total")

	mQueueWait  = obs.Histogram("aq_serve_queue_wait_seconds")
	mRunSeconds = obs.Histogram("aq_serve_run_seconds")

	mWorkersBusy = obs.Gauge("aq_serve_workers_busy")
	mWorkers     = obs.Gauge("aq_serve_workers")
)

// cityMetrics is one tenant's slice of the serving series: the
// tenant-scoped families (admission, breaker, shedding), labeled by city so
// a multi-city server can tell whose traffic is failing or being shed. Each
// tenant record builds its own once; the registry hands a second record for
// the same city the same series.
type cityMetrics struct {
	submitted    *obs.CounterMetric // aq_serve_submitted_total{city}
	cacheHits    *obs.CounterMetric // aq_serve_cache_hits_total{city}
	completed    *obs.CounterMetric // aq_serve_completed_total{city}
	failed       *obs.CounterMetric // aq_serve_failed_total{city}
	staleServed  *obs.CounterMetric // aq_serve_stale_served_total{city}
	shedAsync    *obs.CounterMetric // aq_serve_shed_async_total{city}
	breakerTrips *obs.CounterMetric // aq_serve_breaker_trips_total{city}
	breakerOpen  *obs.GaugeMetric   // aq_serve_breaker_open{city}
	queued       *obs.GaugeMetric   // aq_serve_queue_depth{city}
	burnTrips    *obs.CounterMetric // aq_serve_burn_trips_total{city}
}

func newCityMetrics(city string) cityMetrics {
	label := func(family string) string { return fmt.Sprintf("%s{city=%q}", family, city) }
	return cityMetrics{
		submitted:    obs.Counter(label("aq_serve_submitted_total")),
		cacheHits:    obs.Counter(label("aq_serve_cache_hits_total")),
		completed:    obs.Counter(label("aq_serve_completed_total")),
		failed:       obs.Counter(label("aq_serve_failed_total")),
		staleServed:  obs.Counter(label("aq_serve_stale_served_total")),
		shedAsync:    obs.Counter(label("aq_serve_shed_async_total")),
		breakerTrips: obs.Counter(label("aq_serve_breaker_trips_total")),
		breakerOpen:  obs.Gauge(label("aq_serve_breaker_open")),
		queued:       obs.Gauge(label("aq_serve_queue_depth")),
		burnTrips:    obs.Counter(label("aq_serve_burn_trips_total")),
	}
}

func init() {
	obs.Default.SetHelp("aq_serve_submitted_total", "Admitted query submissions (cache hits and dedups included).")
	obs.Default.SetHelp("aq_serve_cache_hits_total", "Submissions answered from the result cache.")
	obs.Default.SetHelp("aq_serve_cache_misses_total", "Submissions that missed the result cache.")
	obs.Default.SetHelp("aq_serve_deduplicated_total", "Submissions attached to an in-flight identical run.")
	obs.Default.SetHelp("aq_serve_rejected_total", "Submissions rejected by admission control (queue full).")
	obs.Default.SetHelp("aq_serve_completed_total", "Jobs completed successfully.")
	obs.Default.SetHelp("aq_serve_failed_total", "Jobs that finished with an error.")
	obs.Default.SetHelp("aq_serve_cancelled_total", "Jobs cancelled by the client before finishing.")
	obs.Default.SetHelp("aq_serve_shed_async_total", "Async-tier submissions shed while the queue kept sync headroom.")
	obs.Default.SetHelp("aq_serve_stale_served_total", "Submissions answered from expired cache entries while the breaker was open.")
	obs.Default.SetHelp("aq_serve_epoch_stale_hits_total", "Cache hits whose result was computed by an engine epoch older than the city's current one.")
	obs.Default.SetHelp("aq_serve_breaker_trips_total", "Circuit-breaker transitions to open after consecutive engine failures.")
	obs.Default.SetHelp("aq_serve_breaker_rejected_total", "Submissions rejected because the breaker was open with no stale entry.")
	obs.Default.SetHelp("aq_serve_breaker_open", "1 while the circuit breaker refuses new engine runs, else 0.")
	obs.Default.SetHelp("aq_serve_burn_trips_total", "Circuit-breaker trips caused by the SLO fast-burn signal crossing the burn-trip threshold.")
	obs.Default.SetHelp("aq_serve_queue_wait_seconds", "Time a distinct query waited between admission and a worker picking it up.")
	obs.Default.SetHelp("aq_serve_run_seconds", "Engine run duration per deduplicated flight.")
	obs.Default.SetHelp("aq_serve_queue_depth", "Distinct queries currently waiting in the admission queue.")
	obs.Default.SetHelp("aq_serve_workers_busy", "Workers currently executing an engine run.")
	obs.Default.SetHelp("aq_serve_workers", "Configured serving workers across live managers.")
}
