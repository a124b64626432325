package features

import "accessquery/internal/obs"

// Feature-extraction metrics. The extractor's lazy caches (per-origin hop
// maps, reach fractions, per-destination interchange rows, pair vectors)
// amortize most of the online feature cost; the hit/miss counters make
// that amortization — and a cold extractor after restart — visible to an
// operator.
var (
	mPairVectors = obs.Counter("aq_features_pair_vectors_total")
	mCacheHits   = obs.Counter("aq_features_cache_hits_total")
	mCacheMisses = obs.Counter("aq_features_cache_misses_total")
)

func init() {
	obs.Default.SetHelp("aq_features_pair_vectors_total", "OD pair feature vectors computed.")
	obs.Default.SetHelp("aq_features_cache_hits_total", "Extractor lazy-cache hits (hop maps, reach fractions, interchange rows, pair vectors).")
	obs.Default.SetHelp("aq_features_cache_misses_total", "Extractor lazy-cache misses that computed a fresh value.")
}
