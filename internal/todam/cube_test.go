package todam

import (
	"testing"
	"time"

	"accessquery/internal/geo"
	"accessquery/internal/gtfs"
)

// Matrix returns the matrix for interval index i, or nil when out of
// range.
func (c *Cube) Matrix(i int) *Matrix {
	if i < 0 || i >= len(c.Matrices) {
		return nil
	}
	return c.Matrices[i]
}

func cubeIntervals() []gtfs.Interval {
	return []gtfs.Interval{
		{Start: 7 * 3600, End: 9 * 3600, Day: time.Tuesday, Label: "AM peak"},
		{Start: 16 * 3600, End: 18 * 3600, Day: time.Tuesday, Label: "PM peak"},
	}
}

func cubeBase() Spec {
	zones := make([]geo.Point, 30)
	for i := range zones {
		zones[i] = geo.Offset(base, float64(i%6)*900, float64(i/6)*900)
	}
	pois := make([]geo.Point, 5)
	for j := range pois {
		pois[j] = geo.Offset(base, float64(j)*1500, 1800)
	}
	return Spec{
		ZonePts: zones, POIPts: pois,
		SamplesPerHour: 10, Attractiveness: DefaultAttractiveness(), Seed: 17,
	}
}

func TestBuildCube(t *testing.T) {
	c, err := BuildCube(cubeBase(), cubeIntervals())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Matrices) != 2 {
		t.Fatalf("got %d matrices", len(c.Matrices))
	}
	if c.Size() != c.Matrices[0].Size()+c.Matrices[1].Size() {
		t.Error("cube size accounting wrong")
	}
	if c.FullSize() != c.Matrices[0].FullSize()+c.Matrices[1].FullSize() {
		t.Error("cube full-size accounting wrong")
	}
	if r := c.Reduction(); r < 0 || r > 100 {
		t.Errorf("reduction = %f", r)
	}
	// Each interval's start times stay inside its own window.
	for i, m := range c.Matrices {
		for _, ts := range m.StartTimes {
			if v := c.Intervals[i]; ts < v.Start || ts >= v.End {
				t.Errorf("interval %d start time %v outside window", i, ts)
			}
		}
	}
	// Intervals draw different samples (independent seeds).
	if c.Matrices[0].Size() == 0 || c.Matrices[1].Size() == 0 {
		t.Error("empty interval matrix")
	}
}

func TestCubeLookups(t *testing.T) {
	c, err := BuildCube(cubeBase(), cubeIntervals())
	if err != nil {
		t.Fatal(err)
	}
	if c.Matrix(0) == nil || c.Matrix(1) == nil {
		t.Error("index lookups failed")
	}
	if c.Matrix(-1) != nil || c.Matrix(2) != nil {
		t.Error("out-of-range lookups should be nil")
	}
}

func TestBuildCubeValidation(t *testing.T) {
	if _, err := BuildCube(cubeBase(), nil); err == nil {
		t.Error("no intervals should fail")
	}
	bad := cubeBase()
	bad.ZonePts = nil
	if _, err := BuildCube(bad, cubeIntervals()); err == nil {
		t.Error("invalid base spec should fail")
	}
}

func TestBuildCubeDeterministic(t *testing.T) {
	a, err := BuildCube(cubeBase(), cubeIntervals())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCube(cubeBase(), cubeIntervals())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Matrices {
		if a.Matrices[i].Size() != b.Matrices[i].Size() {
			t.Fatalf("interval %d sizes differ", i)
		}
	}
}
