package core

import (
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
	q = q.withDefaults()
	if len(q.POIs) == 0 {
		return nil, fmt.Errorf("core: query has no POIs")
	}
	if q.Budget <= 0 || q.Budget > 1 {
		return nil, fmt.Errorf("core: budget %f outside (0, 1]", q.Budget)
	}
	if q.Model == ModelGNN {
		return nil, fmt.Errorf("core: GNN is zone-transductive and unsupported at OD granularity")
	}
	nz := len(e.zonePts)
	res := &Result{
		MAC:     make([]float64, nz),
		ACSD:    make([]float64, nz),
		Valid:   make([]bool, nz),
		Labeled: make([]bool, nz),
	}
	t0 := time.Now()
	m, poiNodes, poiZones, err := e.buildMatrix(q)
	if err != nil {
		return nil, err
	}
	res.setMatrix(m)
	res.Timing.Matrix = time.Since(t0)

	nl := int(float64(nz)*q.Budget + 0.5)
	if nl < 2 {
		nl = 2
	}
	if nl > nz {
		nl = nz
	}
	labeledSet, err := sampleZones(q.Sampling, e.zonePts, nl, q.Seed)
	if err != nil {
		return nil, err
	}

	// Label at pair level.
	t0 = time.Now()
	labeler := &access.Labeler{
		Router: e.router, Matrix: m, ZoneNode: e.City.ZoneNode,
		POINode: poiNodes, Cost: q.Cost, Params: q.CostParams,
	}
	var xRows, yRows [][]float64
	isLabeled := make([]bool, nz)
	for _, zone := range labeledSet {
		pairs, err := labeler.LabelZonePairs(zone)
		if err != nil {
			return nil, err
		}
		if len(pairs) == 0 {
			continue
		}
		isLabeled[zone] = true
		// Record the exact zone measures for labeled zones.
		var macSum, wsum float64
		for _, pm := range pairs {
			v, err := e.extractor.PairVector(zone, q.POIs[pm.POI], poiZones[pm.POI])
			if err != nil {
				return nil, err
			}
			xRows = append(xRows, v)
			yRows = append(yRows, []float64{pm.Mean})
			macSum += pm.Alpha * pm.Mean
			wsum += pm.Alpha
		}
		res.Valid[zone] = true
		res.Labeled[zone] = true
		res.MAC[zone] = macSum / wsum
		res.ACSD[zone] = weightedStd(pairs, res.MAC[zone])
	}
	res.Timing.Labeling = time.Since(t0)
	res.Timing.SPQs = labeler.SPQs
	if len(xRows) < 2 {
		return nil, fmt.Errorf("core: only %d labelable pairs at budget %.3f", len(xRows), q.Budget)
	}

	// Features for unlabeled zones' pairs.
	t0 = time.Now()
	type pairRef struct {
		zone  int
		alpha float64
	}
	var xuRows [][]float64
	var refs []pairRef
	for zone := 0; zone < nz; zone++ {
		if isLabeled[zone] {
			continue
		}
		for _, pt := range m.Row(zone) {
			v, err := e.extractor.PairVector(zone, q.POIs[pt.POI], poiZones[pt.POI])
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
		preds, _, err := e.trainPredict(q, nil, nil, xRows, yRows, xuRows)
		if err != nil {
			return nil, err
		}
		// Aggregate predictions per zone.
		macSum := make([]float64, nz)
		wsum := make([]float64, nz)
		perZone := make(map[int][]struct{ w, v float64 })
		for r, ref := range refs {
			v := preds.At(r, 0)
			if v < 0 {
				v = 0
			}
			macSum[ref.zone] += ref.alpha * v
			wsum[ref.zone] += ref.alpha
			perZone[ref.zone] = append(perZone[ref.zone], struct{ w, v float64 }{ref.alpha, v})
		}
		for zone := 0; zone < nz; zone++ {
			if isLabeled[zone] || wsum[zone] == 0 {
				continue
			}
			mac := macSum[zone] / wsum[zone]
			res.MAC[zone] = mac
			var varSum float64
			for _, pv := range perZone[zone] {
				varSum += pv.w * (pv.v - mac) * (pv.v - mac)
			}
			res.ACSD[zone] = math.Sqrt(varSum / wsum[zone])
			res.Valid[zone] = true
		}
	}
	res.Timing.Training = time.Since(t0)

	e.finishMeasures(res)
	return res, nil
}

// weightedStd computes the α-weighted dispersion of pair means around the
// zone MAC.
func weightedStd(pairs []access.PairMeasure, mac float64) float64 {
	var varSum, wsum float64
	for _, pm := range pairs {
		varSum += pm.Alpha * (pm.Mean - mac) * (pm.Mean - mac)
		wsum += pm.Alpha
	}
	if wsum == 0 {
		return 0
	}
	return math.Sqrt(varSum / wsum)
}
