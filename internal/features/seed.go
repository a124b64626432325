package features

// SeedFrom copies lazy-cache entries from src into e for the entries an
// incremental forest rebuild provably left unchanged, so a scenario-derived
// engine starts with a warm cache instead of recomputing values that are
// bit-identical to the old ones. rebuilt lists the zones whose hop trees
// were rebuilt; every other zone's trees are shared with src's forest.
//
// Safe entries:
//   - connects[z]: derived only from the inbound tree of z — valid unless z
//     was rebuilt.
//   - hopsTo[origin] and reachFrac[origin]: derived by chaining outbound
//     trees from origin. Copied only when no zone reachable in the cached
//     hop row was rebuilt; a rebuilt zone inside the chain could alter the
//     frontier, and a rebuilt tree can only surface new zones through some
//     rebuilt member of the old row, so this conservative gate is sound.
//   - pair rows (origin, destination): computed from the origin's outbound
//     tree, hop row and reach fraction, the destination zone's inbound tree,
//     and the centroids and isochrones of their leaves (which no delta
//     changes). Copied only when the origin's hop row passed the gate above
//     and neither the origin nor the destination's zone was rebuilt.
//     Destinations are keyed by content, so a POI a delta removed simply
//     leaves a column no query asks for again.
//
// Cached values are deterministic functions of the forest, so entries that
// fail the gate are simply recomputed lazily (or by Warm) with no effect on
// query results. Returns how many entries were copied and how many src
// entries were dropped as potentially stale.
func (e *Extractor) SeedFrom(src *Extractor, rebuilt []int) (seeded, dropped int) {
	if src == nil || len(src.zones) != len(e.zones) {
		return 0, 0
	}
	stale := make([]bool, len(e.zones))
	for _, z := range rebuilt {
		if z >= 0 && z < len(stale) {
			stale[z] = true
		}
	}
	src.mu.RLock()
	defer src.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	for z := range src.connects {
		// A row still being filled is skipped like one never asked for.
		row := src.connects[z].row.Load()
		if row == nil {
			continue
		}
		if stale[z] {
			dropped++
			continue
		}
		e.connects[z].once.Do(func() { e.connects[z].row.Store(row) })
		seeded++
	}
	// originOK marks origins whose hop row survived and which were not
	// rebuilt themselves: the origin half of the pair-row rule.
	originOK := make([]bool, len(e.zones))
	for origin, hops := range src.hopsTo {
		if hops == nil {
			continue
		}
		ok := true
		for z, h := range hops {
			if h >= 0 && stale[z] {
				ok = false
				break
			}
		}
		if !ok {
			dropped++
			continue
		}
		e.hopsTo[origin] = hops
		seeded++
		originOK[origin] = !stale[origin]
		if f := src.reachFrac[origin]; f >= 0 {
			e.reachFrac[origin] = f
			seeded++
		}
	}
	for dest, col := range src.pairs {
		var kept *pairColumn
		for origin := range col.state {
			if col.state[origin].Load() != rowReady {
				continue
			}
			if stale[dest.zone] || !originOK[origin] {
				dropped++
				continue
			}
			if kept == nil {
				kept = e.newPairColumn()
				e.pairs[dest] = kept
			}
			copy(kept.row(origin), col.row(origin))
			kept.state[origin].Store(rowReady)
			seeded++
		}
	}
	return seeded, dropped
}
