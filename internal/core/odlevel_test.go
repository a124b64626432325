package core

import (
	"math"
	"strings"
	"testing"

	"accessquery/internal/fault"
	"accessquery/internal/metrics"
)

func TestRunODProducesMeasures(t *testing.T) {
	e := engine(t)
	res, err := e.RunOD(vaxQuery(e, ModelOLS, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	var valid, labeled int
	for i := range res.Valid {
		if res.Valid[i] {
			valid++
			if res.MAC[i] < 0 || math.IsNaN(res.MAC[i]) {
				t.Errorf("zone %d MAC = %f", i, res.MAC[i])
			}
			if res.ACSD[i] < 0 || math.IsNaN(res.ACSD[i]) {
				t.Errorf("zone %d ACSD = %f", i, res.ACSD[i])
			}
		}
		if res.Labeled[i] {
			labeled++
		}
	}
	if valid < len(e.City.Zones)/2 {
		t.Errorf("only %d zones valid", valid)
	}
	if labeled == 0 {
		t.Error("no labeled zones")
	}
	if res.Timing.SPQs <= 0 {
		t.Error("no SPQs counted")
	}
}

func TestRunODValidation(t *testing.T) {
	e := engine(t)
	q := vaxQuery(e, ModelGNN, 0.2)
	if _, err := e.RunOD(q); err == nil {
		t.Error("GNN at OD granularity should fail")
	}
	q = vaxQuery(e, ModelOLS, 0)
	if _, err := e.RunOD(q); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := e.RunOD(Query{Budget: 0.2}); err == nil {
		t.Error("no POIs should fail")
	}
}

func TestRunODLabeledZonesMatchZoneLevelMAC(t *testing.T) {
	// For labeled zones, OD-level MAC is the alpha-weighted mean of pair
	// means; zone-level MAC is the plain mean over trips. They agree when
	// every pair samples trips proportionally to alpha — approximately, so
	// allow slack but demand strong correlation.
	e := engine(t)
	q := vaxQuery(e, ModelOLS, 0.4)
	zoneRes, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	odRes, err := e.RunOD(q)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []float64
	for i := range zoneRes.MAC {
		if zoneRes.Labeled[i] && odRes.Labeled[i] {
			a = append(a, zoneRes.MAC[i])
			b = append(b, odRes.MAC[i])
		}
	}
	if len(a) < 5 {
		t.Skipf("only %d zones labeled in both runs", len(a))
	}
	r, err := metrics.Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.95 {
		t.Errorf("labeled-zone MAC correlation between granularities = %f", r)
	}
}

func TestRunODCorrelatesWithGroundTruth(t *testing.T) {
	e := engine(t)
	q := vaxQuery(e, ModelMLP, 0.3)
	gt, err := e.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	od, err := e.RunOD(q)
	if err != nil {
		t.Fatal(err)
	}
	var pred, truth []float64
	for i := range od.MAC {
		if od.Valid[i] && gt.Valid[i] && !od.Labeled[i] {
			pred = append(pred, od.MAC[i])
			truth = append(truth, gt.MAC[i])
		}
	}
	if len(pred) < 10 {
		t.Fatalf("only %d comparable zones", len(pred))
	}
	r, err := metrics.Pearson(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Errorf("OD-level MAC correlation = %f, want > 0.5", r)
	}
}

// TestRunODFailsOnLostZones: OD labeling retries transient SPQ failures
// like the zone-level run, but a zone still lost after its retries fails
// the run instead of degrading it.
func TestRunODFailsOnLostZones(t *testing.T) {
	e := engine(t)
	spec, err := fault.ParseSpec("seed=11;spq:fail=0.2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(spec)
	prev := fault.Enable(inj)
	_, err = e.RunOD(vaxQuery(e, ModelOLS, 0.3))
	fault.Enable(prev)
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("err = %v, want a lost-zones error", err)
	}
	if inj.Counts()[fault.SiteSPQ] == 0 {
		t.Fatal("no faults injected")
	}
}
