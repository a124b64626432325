package bank

import "accessquery/internal/obs"

// Process-wide bank metrics. A server runs one bank, so these are global
// rather than labeled per instance; per-tenant segment sizes are exposed
// through /v1/stats instead (one gauge per {city, epoch} would churn
// label sets on every swap).
var (
	mHits     = obs.Counter("aq_bank_hits_total")
	mMisses   = obs.Counter("aq_bank_misses_total")
	mDeposits = obs.Counter("aq_bank_deposits_total")
	mEvicted  = obs.Counter("aq_bank_evicted_total")
	mSeeded   = obs.Counter("aq_bank_seeded_total")
	mRetired  = obs.Counter("aq_bank_retired_total")
	mEntries  = obs.Gauge("aq_bank_entries")
	mSegments = obs.Gauge("aq_bank_segments")
)

func init() {
	obs.Default.SetHelp("aq_bank_hits_total", "Priced trips served from the label bank (SPQs avoided).")
	obs.Default.SetHelp("aq_bank_misses_total", "Label-bank lookups that missed and were priced by SPQ.")
	obs.Default.SetHelp("aq_bank_deposits_total", "Priced trips deposited into the label bank by clean runs.")
	obs.Default.SetHelp("aq_bank_evicted_total", "Label-bank entries evicted by the capacity bound (FIFO, oldest segment first).")
	obs.Default.SetHelp("aq_bank_seeded_total", "Label-bank entries carried forward across a transit-free scenario epoch.")
	obs.Default.SetHelp("aq_bank_retired_total", "Label-bank entries dropped when an engine epoch was retired.")
	obs.Default.SetHelp("aq_bank_entries", "Live label-bank entries across attached segments.")
	obs.Default.SetHelp("aq_bank_segments", "Attached label-bank segments ({city, epoch} partitions).")
}
