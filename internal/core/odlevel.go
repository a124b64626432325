package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"accessquery/internal/access"
)

// RunOD answers an access query learning at the OD level — the alternative
// granularity Section IV-C of the paper weighs against origin-level
// aggregation. One feature vector and one target (the pair's mean access
// cost) is produced per (zone, POI) pair with positive attractiveness;
// predictions for unlabeled zones' pairs are aggregated back to zone MAC
// with the α weights.
//
// As the paper notes, the weighted aggregation of standard deviations is
// "computationally challenging and accuracy is hard to ensure": the ACSD
// reported here is the α-weighted dispersion of predicted pair means, which
// omits within-pair temporal variance and therefore under-estimates ACSD.
// The GNN is zone-transductive and is not supported at this granularity.
func (e *Engine) RunOD(q Query) (*Result, error) {
	r := e.newRun(q)
	defer r.release()
	if err := r.validate(); err != nil {
		return nil, err
	}
	if r.q.Model == ModelGNN {
		return nil, fmt.Errorf("core: GNN is zone-transductive and unsupported at OD granularity")
	}
	r.od = true
	ctx := context.Background()
	if err := r.matrix(ctx); err != nil {
		return nil, err
	}
	if err := r.sample(ctx); err != nil {
		return nil, err
	}
	if err := r.label(ctx); err != nil {
		return nil, err
	}
	if r.lo.failed > 0 || r.lo.truncated > 0 {
		return nil, fmt.Errorf("core: OD labeling lost %d zones to SPQ faults and %d to truncation", r.lo.failed, r.lo.truncated)
	}

	// Features for the labeled zones' pairs, then the unlabeled zones'.
	t0 := time.Now()
	var xRows, yRows [][]float64
	for i, zone := range r.zones {
		for _, pm := range r.lo.pairs[i] {
			v, err := e.extractor.PairVector(zone, r.q.POIs[pm.POI], r.poiZones[pm.POI])
			if err != nil {
				return nil, err
			}
			xRows = append(xRows, v)
			yRows = append(yRows, []float64{pm.Mean})
		}
	}
	if len(xRows) < 2 {
		return nil, fmt.Errorf("core: only %d labelable pairs at budget %.3f", len(xRows), r.q.Budget)
	}
	type pairRef struct {
		zone  int
		alpha float64
	}
	var xuRows [][]float64
	var refs []pairRef
	res := r.res
	nz := len(e.zonePts)
	for zone := 0; zone < nz; zone++ {
		if res.Labeled[zone] {
			continue
		}
		for _, pt := range r.m.Row(zone) {
			v, err := e.extractor.PairVector(zone, r.q.POIs[pt.POI], r.poiZones[pt.POI])
			if err != nil {
				return nil, err
			}
			xuRows = append(xuRows, v)
			refs = append(refs, pairRef{zone: zone, alpha: pt.Alpha})
		}
	}
	res.Timing.Features = time.Since(t0)

	// Train and infer pair costs.
	t0 = time.Now()
	if len(xuRows) > 0 {
		preds, fit, err := e.trainPredict(r.q, nil, nil, xRows, yRows, xuRows)
		if err != nil {
			return nil, err
		}
		res.Model, res.Fit = r.q.Model, fit
		// Aggregate predictions per zone: the α-weighted mean, then the
		// α-weighted dispersion around it.
		pred := func(i int) float64 {
			v := preds.At(i, 0)
			if v < 0 {
				v = 0
			}
			return v
		}
		macSum := make([]float64, nz)
		wsum := make([]float64, nz)
		varSum := make([]float64, nz)
		for i, ref := range refs {
			macSum[ref.zone] += ref.alpha * pred(i)
			wsum[ref.zone] += ref.alpha
		}
		for i, ref := range refs {
			d := pred(i) - macSum[ref.zone]/wsum[ref.zone]
			varSum[ref.zone] += ref.alpha * d * d
		}
		for zone := 0; zone < nz; zone++ {
			if res.Labeled[zone] || wsum[zone] == 0 {
				continue
			}
			res.MAC[zone] = macSum[zone] / wsum[zone]
			res.ACSD[zone] = math.Sqrt(varSum[zone] / wsum[zone])
			res.Valid[zone] = true
		}
	}
	res.Timing.Training = time.Since(t0)
	return r.finish(), nil
}

// pairZoneMeasure aggregates a labeled zone's pair measures to the zone:
// MAC is the α-weighted mean of pair means and ACSD their α-weighted
// dispersion around it. A zone with no priced pair reports ok=false.
func pairZoneMeasure(pairs []access.PairMeasure) (m access.ZoneMeasure, ok bool) {
	var macSum, wsum float64
	for _, pm := range pairs {
		macSum += pm.Alpha * pm.Mean
		wsum += pm.Alpha
	}
	if len(pairs) == 0 {
		return m, false
	}
	m.MAC = macSum / wsum
	var varSum float64
	for _, pm := range pairs {
		varSum += pm.Alpha * (pm.Mean - m.MAC) * (pm.Mean - m.MAC)
	}
	if wsum != 0 {
		m.ACSD = math.Sqrt(varSum / wsum)
	}
	return m, true
}
