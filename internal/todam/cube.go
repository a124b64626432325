package todam

import (
	"fmt"

	"accessquery/internal/gtfs"
)

// Cube is the full temporal extent of the TODAM: one gravity matrix per
// labeled time interval (weekday AM peak, PM peak, ...). The paper's
// experiments report a single interval at a time; the cube is the
// structure a transport agency maintains across all the intervals it
// monitors, and what a travel-time-cube analysis (Farber & Fu) consumes.
type Cube struct {
	// Intervals indexes Matrices.
	Intervals []gtfs.Interval
	Matrices  []*Matrix
}

// BuildCube constructs one gravity matrix per interval from a shared base
// spec (ZonePts, POIPts, SamplesPerHour, Attractiveness). Each interval's
// matrix draws its own start times; seeds are derived from the base seed
// so intervals stay independent but reproducible.
func BuildCube(base Spec, intervals []gtfs.Interval) (*Cube, error) {
	if len(intervals) == 0 {
		return nil, fmt.Errorf("todam: cube needs at least one interval")
	}
	c := &Cube{}
	for i, iv := range intervals {
		spec := base
		spec.Interval = iv
		spec.Seed = base.Seed + int64(i)*1_000_003
		m, err := Build(spec)
		if err != nil {
			return nil, fmt.Errorf("todam: interval %q: %w", iv.Label, err)
		}
		c.Intervals = append(c.Intervals, iv)
		c.Matrices = append(c.Matrices, m)
	}
	return c, nil
}

// Size returns the total sampled trips across all intervals.
func (c *Cube) Size() int64 {
	var n int64
	for _, m := range c.Matrices {
		n += m.Size()
	}
	return n
}

// FullSize returns the total |M_f| across all intervals.
func (c *Cube) FullSize() int64 {
	var n int64
	for _, m := range c.Matrices {
		n += m.FullSize()
	}
	return n
}

// Reduction returns the percentage reduction over the whole cube.
func (c *Cube) Reduction() float64 {
	full := c.FullSize()
	if full == 0 {
		return 0
	}
	return 100 * (1 - float64(c.Size())/float64(full))
}
