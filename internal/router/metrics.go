package router

import "accessquery/internal/obs"

// Router metrics. One Profile call is one SPQ equivalent; relaxations count
// the label-correcting work inside it (walking-edge and ride relaxation
// attempts, a ride relaxation once per trip and stop position in a search,
// plus the subset that improved a label), making SPQ cost
// visible below the trip level. Counts are accumulated locally per search
// and flushed with one atomic add each, so the hot loop stays allocation-
// and contention-free.
var (
	mProfiles     = obs.Counter("aq_router_profiles_total")
	mRelaxations  = obs.Counter("aq_router_relaxations_total")
	mImprovements = obs.Counter("aq_router_improvements_total")
)

func init() {
	obs.Default.SetHelp("aq_router_profiles_total", "One-to-many multimodal searches run (SPQ equivalents).")
	obs.Default.SetHelp("aq_router_relaxations_total", "Label relaxation attempts across walking edges and transit rides; a search relaxes each (trip, stop position) once.")
	obs.Default.SetHelp("aq_router_improvements_total", "Relaxations that improved a node label.")
}
