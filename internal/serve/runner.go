package serve

import (
	"context"
	"fmt"
	"runtime"

	"accessquery/internal/access"
	"accessquery/internal/bank"
	"accessquery/internal/core"
	"accessquery/internal/registry"
	"accessquery/internal/synth"
)

// RunnerConfig tunes how RegistryRunner maps requests onto engine runs. Its
// fields control only resource use — results are identical at any
// setting, which is why none participates in request fingerprints.
// Labeling inside a served run is serial: the manager's worker pool
// already runs queries side by side.
type RunnerConfig struct {
	// Parallelism fans the per-zone feature stage of each run across a
	// worker pool; 0 defaults to runtime.GOMAXPROCS(0). Use a negative
	// value to force the serial path.
	Parallelism int
	// Bank, when non-nil, shares priced trips across queries. Each run
	// drains from and deposits into the segment keyed by the exact
	// {city, epoch} it acquired, so a hot-swap can never serve another
	// generation's prices. Result-neutral like Parallelism: banked
	// runs re-derive every cost from the cached journeys.
	Bank *bank.Bank
}

func (c RunnerConfig) withDefaults() RunnerConfig {
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// RegistryRunner adapts a city registry to the manager's RunFunc. Pair it
// with Config.EpochOf = reg.EpochOf, which resolves every request's city to
// its tenant's canonical name at Submit; each run then looks that tenant up
// and acquires its current engine generation, holding a refcounted
// reference for the duration of the run: a hot-swap installed mid-run
// retires the old generation only after this run's release, so the engine
// under our feet can never be torn down. The result is stamped with the
// {city, epoch} that computed it — the provenance the cache and the HTTP
// layer surface as epoch staleness after a swap.
func RegistryRunner(reg *registry.Registry, cfg RunnerConfig) RunFunc {
	cfg = cfg.withDefaults()
	return func(ctx context.Context, req Request) (*core.Result, error) {
		tn, ok := reg.Get(req.City)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCity, req.City)
		}
		engine, epoch, release := tn.Acquire()
		defer release()
		// The segment is resolved from the acquired {city, epoch} pair —
		// never from the tenant's current epoch, which a concurrent swap
		// may already have advanced past the engine under our feet.
		var seg access.TripBank
		if cfg.Bank != nil {
			seg = cfg.Bank.Segment(tn.Name, epoch)
		}
		pois := core.POIsOf(engine.City, synth.POICategory(req.Category))
		if len(pois) == 0 {
			return nil, fmt.Errorf("unknown or empty POI category %q", req.Category)
		}
		// Request.Query is the one canonical wire→engine mapping; only the
		// result-neutral execution knobs are layered on here. POI weights
		// are engine state (set by scenario deltas), not request state, so
		// like the epoch they ride outside the fingerprint: stale cache
		// entries are flagged via epoch staleness, not keyed away.
		q := req.Query(pois)
		q.POIWeights = core.POIWeightsOf(engine.City, synth.POICategory(req.Category))
		q.Parallelism = cfg.Parallelism
		q.Bank = seg
		res, err := engine.RunContext(ctx, q)
		if res != nil {
			// What the manager retains — cache entries and finished jobs,
			// for minutes — must stay small: responses read MatrixStats,
			// nothing downstream reads the sampled matrix itself.
			res.Matrix = nil
			res.City = tn.Name
			res.Epoch = epoch
		}
		return res, err
	}
}
