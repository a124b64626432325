package core

import "strings"

// DegradationRung identifies one rung of the engine's deadline-pressure
// degradation ladder, ordered by severity. Under deadline or fault
// pressure the engine climbs the ladder instead of failing: first it
// shrinks the effective labeling budget (truncating or losing labeled
// zones), then it swaps the configured model for OLS, and finally it
// returns a partial, labeled-only result.
type DegradationRung string

// The ladder, least to most severe.
const (
	// RungBudget: the effective labeling budget fell below the requested β —
	// labeling was truncated at the deadline or zones were abandoned after
	// exhausting transient-failure retries.
	RungBudget DegradationRung = "budget"
	// RungModelFallback: the configured model was replaced by OLS, either
	// because too little of the deadline remained for an iterative fit or
	// because the configured model failed.
	RungModelFallback DegradationRung = "model_fallback"
	// RungPartial: the run could not reach training; the result carries only
	// the zones labeled before the deadline, with every other zone invalid.
	RungPartial DegradationRung = "partial"
)

// rungOrder ranks rungs by severity for monotonicity checks.
var rungOrder = map[DegradationRung]int{RungBudget: 1, RungModelFallback: 2, RungPartial: 3}

// Severity returns the rung's rank (higher is worse), 0 for unknown.
func (r DegradationRung) Severity() int { return rungOrder[r] }

// DegradedReport describes how a run degraded instead of failing. A nil
// report on a Result means full fidelity. Fields are JSON-tagged because
// the serving layer embeds the report verbatim in query responses.
type DegradedReport struct {
	// Rungs lists the ladder rungs that fired, in severity order.
	Rungs []DegradationRung `json:"rungs"`
	// Reasons gives one human-readable sentence per fired rung.
	Reasons []string `json:"reasons"`
	// BudgetRequested and BudgetEffective compare the requested labeling
	// budget β against the labeled share actually achieved.
	BudgetRequested float64 `json:"budget_requested"`
	BudgetEffective float64 `json:"budget_effective"`
	// ModelRequested and ModelUsed differ when the model-fallback rung
	// fired.
	ModelRequested string `json:"model_requested,omitempty"`
	ModelUsed      string `json:"model_used,omitempty"`
	// ZonesFailed counts labeled-set zones abandoned after transient SPQ
	// failures; ZonesTruncated counts those never attempted because the
	// deadline budget ran out.
	ZonesFailed    int `json:"zones_failed,omitempty"`
	ZonesTruncated int `json:"zones_truncated,omitempty"`
	// SPQRetries and SPQAbandoned account for every injected or organic
	// transient SPQ failure: each one was either retried or abandoned.
	SPQRetries   int64 `json:"spq_retries,omitempty"`
	SPQAbandoned int64 `json:"spq_abandoned,omitempty"`
}

// fire records a rung with its reason, keeping Rungs sorted by severity
// and free of duplicates.
func (d *DegradedReport) fire(r DegradationRung, reason string) {
	for i, have := range d.Rungs {
		if have == r {
			d.Reasons[i] = reason
			return
		}
	}
	at := len(d.Rungs)
	for i, have := range d.Rungs {
		if r.Severity() < have.Severity() {
			at = i
			break
		}
	}
	d.Rungs = append(d.Rungs, "")
	copy(d.Rungs[at+1:], d.Rungs[at:])
	d.Rungs[at] = r
	d.Reasons = append(d.Reasons, "")
	copy(d.Reasons[at+1:], d.Reasons[at:])
	d.Reasons[at] = reason
}

// Has reports whether the rung fired.
func (d *DegradedReport) Has(r DegradationRung) bool {
	if d == nil {
		return false
	}
	for _, have := range d.Rungs {
		if have == r {
			return true
		}
	}
	return false
}

// String renders the fired rungs for spans and logs, e.g.
// "budget,model_fallback".
func (d *DegradedReport) String() string {
	if d == nil || len(d.Rungs) == 0 {
		return ""
	}
	parts := make([]string, len(d.Rungs))
	for i, r := range d.Rungs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ",")
}
