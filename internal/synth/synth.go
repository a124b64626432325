// Package synth generates deterministic synthetic cities: census-tract
// zones, a walkable road network, a GTFS bus timetable, and point-of-interest
// sets. It substitutes for the paper's proprietary inputs (ONS census-tract
// shapefiles, the TfWM GTFS feed, and web-scraped POI locations) while
// exercising exactly the same downstream code paths.
//
// Cities are generated around a central business district with an
// exponentially decaying population density, a perturbed-grid road network,
// and a radial + orbital bus network — the canonical structure of UK cities
// of this size. Presets Birmingham and Coventry copy the zone and POI counts
// from Table I of the paper; Scaled shrinks a preset for tests and
// laptop-scale experiments.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"accessquery/internal/geo"
	"accessquery/internal/graph"
	"accessquery/internal/gtfs"
	"accessquery/internal/spatial"
)

// POICategory names a point-of-interest set. The four categories evaluated
// in the paper are predefined.
type POICategory string

// The POI categories from the paper's evaluation.
const (
	POISchool    POICategory = "school"
	POIHospital  POICategory = "hospital"
	POIVaxCenter POICategory = "vax_center"
	POIJobCenter POICategory = "job_center"
)

// AllCategories lists the paper's POI categories in report order.
var AllCategories = []POICategory{POISchool, POIHospital, POIVaxCenter, POIJobCenter}

// Zone is a census tract, represented by its centroid as in the paper.
type Zone struct {
	ID       int
	Centroid geo.Point
	// Population is the number of residents, used to weight fairness.
	Population int
	// Vulnerability in [0,1] approximates the share of residents in a
	// clinically or economically vulnerable group; used by the
	// demographic-weighted fairness index.
	Vulnerability float64
}

// POI is a point of interest with a category.
type POI struct {
	ID       int
	Category POICategory
	Point    geo.Point
	Name     string
	// Weight multiplies the POI's attractiveness in the TODAM gravity gate.
	// The zero value means the default weight 1; scenario deltas are the
	// only writers (generated cities leave it unset).
	Weight float64
}

// Config controls city generation.
type Config struct {
	Name   string
	Seed   int64
	Center geo.Point
	// Zones is the number of census tracts.
	Zones int
	// RadiusMeters is the city's approximate radius.
	RadiusMeters float64
	// DensityScale is the exponential density decay length as a fraction of
	// the radius; smaller values concentrate population near the center.
	DensityScale float64
	// RoadSpacing is the approximate distance in meters between road nodes.
	RoadSpacing float64
	// Bus network shape.
	RadialRoutes  int
	OrbitalRoutes int
	CrossRoutes   int
	// StopSpacing is the distance between bus stops along a route in meters.
	StopSpacing float64
	// Headways in seconds during peak (07:00-09:00, 16:00-18:00) and
	// off-peak service.
	PeakHeadway    gtfs.Seconds
	OffPeakHeadway gtfs.Seconds
	// BusSpeedKph is average in-vehicle speed including dwell.
	BusSpeedKph float64
	// FarePence is the flat per-boarding fare.
	FarePence float64
	// POICounts gives the size of each POI set.
	POICounts map[POICategory]int
}

// Birmingham returns the configuration matching the paper's larger city:
// 3217 zones and the Table I POI counts.
func Birmingham() Config {
	return Config{
		Name:           "Birmingham",
		Seed:           1914,
		Center:         geo.Point{Lat: 52.4862, Lon: -1.8904},
		Zones:          3217,
		RadiusMeters:   14000,
		DensityScale:   0.45,
		RoadSpacing:    250,
		RadialRoutes:   14,
		OrbitalRoutes:  3,
		CrossRoutes:    6,
		StopSpacing:    420,
		PeakHeadway:    600,
		OffPeakHeadway: 1200,
		BusSpeedKph:    19,
		FarePence:      240,
		POICounts: map[POICategory]int{
			POISchool: 874, POIHospital: 56, POIVaxCenter: 82, POIJobCenter: 20,
		},
	}
}

// Coventry returns the configuration matching the paper's smaller city:
// 1014 zones and the Table I POI counts.
func Coventry() Config {
	return Config{
		Name:           "Coventry",
		Seed:           1345,
		Center:         geo.Point{Lat: 52.4068, Lon: -1.5197},
		Zones:          1014,
		RadiusMeters:   8000,
		DensityScale:   0.5,
		RoadSpacing:    250,
		RadialRoutes:   9,
		OrbitalRoutes:  2,
		CrossRoutes:    3,
		StopSpacing:    420,
		PeakHeadway:    720,
		OffPeakHeadway: 1500,
		BusSpeedKph:    18,
		FarePence:      220,
		POICounts: map[POICategory]int{
			POISchool: 230, POIHospital: 6, POIVaxCenter: 22, POIJobCenter: 2,
		},
	}
}

// Scaled shrinks cfg by the given factor (0 < factor <= 1), scaling zone and
// POI counts, radius, and route counts proportionally, so experiments keep
// the city's shape at a fraction of the cost. POI sets never drop below one
// POI.
func Scaled(cfg Config, factor float64) Config {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	out := cfg
	out.Name = fmt.Sprintf("%s-x%.2f", cfg.Name, factor)
	out.Zones = maxInt(8, int(float64(cfg.Zones)*factor))
	out.RadiusMeters = cfg.RadiusMeters * math.Sqrt(factor)
	out.RadialRoutes = maxInt(3, int(float64(cfg.RadialRoutes)*math.Sqrt(factor)))
	out.OrbitalRoutes = maxInt(1, int(float64(cfg.OrbitalRoutes)*math.Sqrt(factor)))
	out.CrossRoutes = maxInt(1, int(float64(cfg.CrossRoutes)*math.Sqrt(factor)))
	out.POICounts = make(map[POICategory]int, len(cfg.POICounts))
	for cat, n := range cfg.POICounts {
		out.POICounts[cat] = maxInt(1, int(float64(n)*factor))
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// City is a fully generated synthetic city.
type City struct {
	Name   string
	Config Config
	Center geo.Point
	Zones  []Zone
	POIs   map[POICategory][]POI
	// Road is the walking network; edge weights are walking seconds.
	Road *graph.Graph
	// Feed is the transit timetable.
	Feed *gtfs.Feed
	// StopNode maps each transit stop onto its nearest road node, welding
	// the two layers together for multimodal routing.
	StopNode map[gtfs.StopID]graph.NodeID
	// ZoneNode maps each zone onto its nearest road node.
	ZoneNode []graph.NodeID
	// ZoneWeights, when non-nil, multiplies each zone's attractiveness in
	// the TODAM gravity gate (indexed like Zones). Nil means every zone at
	// the default weight 1; scenario deltas are the only writers.
	ZoneWeights []float64
}

// Generate builds the city described by cfg. Generation is deterministic in
// cfg.Seed. It returns an error only for nonsensical configurations.
func Generate(cfg Config) (*City, error) {
	if cfg.Zones <= 0 {
		return nil, fmt.Errorf("synth: config needs at least one zone, got %d", cfg.Zones)
	}
	if cfg.RadiusMeters <= 0 {
		return nil, fmt.Errorf("synth: non-positive radius %f", cfg.RadiusMeters)
	}
	if cfg.RoadSpacing <= 0 {
		cfg.RoadSpacing = 250
	}
	if cfg.StopSpacing <= 0 {
		cfg.StopSpacing = 420
	}
	if cfg.DensityScale <= 0 {
		cfg.DensityScale = 0.5
	}
	if cfg.BusSpeedKph <= 0 {
		cfg.BusSpeedKph = 19
	}
	if cfg.PeakHeadway <= 0 {
		cfg.PeakHeadway = 600
	}
	if cfg.OffPeakHeadway <= 0 {
		cfg.OffPeakHeadway = 1200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &City{
		Name:   cfg.Name,
		Config: cfg,
		Center: cfg.Center,
		POIs:   make(map[POICategory][]POI),
	}
	c.generateZones(rng)
	c.generateRoads(rng)
	c.generateTransit(rng)
	c.generatePOIs(rng)
	c.weld()
	return c, nil
}

// samplePointInCity draws a point with exponentially decaying density from
// the center.
func samplePointInCity(rng *rand.Rand, center geo.Point, radius, scale float64) geo.Point {
	for {
		// Sample radius from a truncated exponential via rejection.
		r := rng.ExpFloat64() * scale * radius
		if r > radius {
			continue
		}
		theta := rng.Float64() * 2 * math.Pi
		return geo.Offset(center, r*math.Cos(theta), r*math.Sin(theta))
	}
}

func (c *City) generateZones(rng *rand.Rand) {
	cfg := c.Config
	c.Zones = make([]Zone, cfg.Zones)
	for i := range c.Zones {
		p := samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, cfg.DensityScale)
		r := geo.DistanceMeters(cfg.Center, p) / cfg.RadiusMeters
		// UK output areas hold ~300 people on average; vary a little.
		pop := 250 + rng.Intn(150)
		// Vulnerability rises toward the periphery with noise, mimicking the
		// suburban deprivation gradient of large UK cities.
		vuln := clamp01(0.15 + 0.5*r + rng.NormFloat64()*0.12)
		c.Zones[i] = Zone{ID: i, Centroid: p, Population: pop, Vulnerability: vuln}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// generateRoads lays a perturbed grid over the city disc and connects
// 4-neighbours, dropping a few edges to create irregularity.
func (c *City) generateRoads(rng *rand.Rand) {
	cfg := c.Config
	spacing := cfg.RoadSpacing
	half := int(cfg.RadiusMeters/spacing) + 1
	type cellIdx struct{ x, y int }
	nodeAt := make(map[cellIdx]graph.NodeID)
	g := graph.New(4 * half * half)
	for y := -half; y <= half; y++ {
		for x := -half; x <= half; x++ {
			dx := float64(x) * spacing
			dy := float64(y) * spacing
			if math.Hypot(dx, dy) > cfg.RadiusMeters {
				continue
			}
			jx := dx + (rng.Float64()-0.5)*spacing*0.3
			jy := dy + (rng.Float64()-0.5)*spacing*0.3
			nodeAt[cellIdx{x, y}] = g.AddNode(geo.Offset(cfg.Center, jx, jy))
		}
	}
	addEdge := func(a, b graph.NodeID) {
		meters := geo.DistanceMeters(g.Point(a), g.Point(b))
		seconds := meters * geo.StreetDetour * geo.WalkSecondsPerMeter
		_ = g.AddEdge(a, b, seconds) // endpoints valid by construction
	}
	// Iterate cells in deterministic (row-major) order: ranging over the
	// map would consume rng draws in random order and make the edge set
	// differ between runs with the same seed.
	for y := -half; y <= half; y++ {
		for x := -half; x <= half; x++ {
			id, ok := nodeAt[cellIdx{x, y}]
			if !ok {
				continue
			}
			if right, ok := nodeAt[cellIdx{x + 1, y}]; ok && rng.Float64() > 0.04 {
				addEdge(id, right)
			}
			if up, ok := nodeAt[cellIdx{x, y + 1}]; ok && rng.Float64() > 0.04 {
				addEdge(id, up)
			}
		}
	}
	c.Road = g
}

// routeSpec is an intermediate description of a bus line's geometry.
type routeSpec struct {
	name string
	path []geo.Point // polyline through the city
}

// generateTransit builds the bus network: radial routes through the center,
// orbital rings, and cross-town chords; stops along each polyline; and
// timetabled trips in both directions for a weekday service.
func (c *City) generateTransit(rng *rand.Rand) {
	cfg := c.Config
	feed := gtfs.NewFeed()
	weekday := gtfs.Service{ID: "WEEKDAY"}
	for d := 1; d <= 5; d++ { // Monday..Friday
		weekday.Weekdays[d] = true
	}
	weekend := gtfs.Service{ID: "WEEKEND"}
	weekend.Weekdays[0], weekend.Weekdays[6] = true, true
	if err := feed.AddService(weekday); err != nil {
		panic(err) // fresh feed: cannot collide
	}
	if err := feed.AddService(weekend); err != nil {
		panic(err)
	}

	var specs []routeSpec
	// Radial routes: from the rim through the center to the opposite rim.
	for i := 0; i < cfg.RadialRoutes; i++ {
		theta := 2 * math.Pi * (float64(i) + rng.Float64()*0.25) / float64(cfg.RadialRoutes)
		r := cfg.RadiusMeters * (0.85 + rng.Float64()*0.15)
		a := geo.Offset(cfg.Center, r*math.Cos(theta), r*math.Sin(theta))
		b := geo.Offset(cfg.Center, -r*math.Cos(theta+0.15), -r*math.Sin(theta+0.15))
		specs = append(specs, routeSpec{
			name: fmt.Sprintf("X%d", i+1),
			path: []geo.Point{a, cfg.Center, b},
		})
	}
	// Orbital routes: closed rings at increasing radii.
	for i := 0; i < cfg.OrbitalRoutes; i++ {
		r := cfg.RadiusMeters * (0.35 + 0.45*float64(i+1)/float64(cfg.OrbitalRoutes+1))
		var ring []geo.Point
		const segments = 20
		for s := 0; s <= segments; s++ {
			theta := 2 * math.Pi * float64(s) / segments
			ring = append(ring, geo.Offset(cfg.Center, r*math.Cos(theta), r*math.Sin(theta)))
		}
		specs = append(specs, routeSpec{name: fmt.Sprintf("O%d", i+1), path: ring})
	}
	// Cross-town chords connecting suburbs without passing the center.
	for i := 0; i < cfg.CrossRoutes; i++ {
		t1 := rng.Float64() * 2 * math.Pi
		t2 := t1 + math.Pi/2 + rng.Float64()*math.Pi/2
		r1 := cfg.RadiusMeters * (0.5 + rng.Float64()*0.4)
		r2 := cfg.RadiusMeters * (0.5 + rng.Float64()*0.4)
		a := geo.Offset(cfg.Center, r1*math.Cos(t1), r1*math.Sin(t1))
		b := geo.Offset(cfg.Center, r2*math.Cos(t2), r2*math.Sin(t2))
		mid := geo.Midpoint(a, b)
		// Bow the chord outward a little.
		bow := geo.Offset(mid, (rng.Float64()-0.5)*2000, (rng.Float64()-0.5)*2000)
		specs = append(specs, routeSpec{name: fmt.Sprintf("C%d", i+1), path: []geo.Point{a, bow, b}})
	}

	stopSeq := 0
	for ri, spec := range specs {
		routeID := gtfs.RouteID(fmt.Sprintf("RT_%s", spec.name))
		if err := feed.AddRoute(gtfs.Route{
			ID: routeID, ShortName: spec.name,
			LongName: fmt.Sprintf("%s %s line", cfg.Name, spec.name),
			Type:     gtfs.RouteBus, FareFlat: cfg.FarePence,
		}); err != nil {
			panic(err)
		}
		// Place stops along the polyline.
		pts := densify(spec.path, cfg.StopSpacing)
		stopIDs := make([]gtfs.StopID, len(pts))
		for si, p := range pts {
			id := gtfs.StopID(fmt.Sprintf("S%04d", stopSeq))
			stopSeq++
			stopIDs[si] = id
			if err := feed.AddStop(gtfs.Stop{
				ID: id, Name: fmt.Sprintf("%s/%d", spec.name, si), Point: p,
			}); err != nil {
				panic(err)
			}
		}
		// Inter-stop travel times at bus speed.
		legSeconds := make([]gtfs.Seconds, len(pts)-1)
		speedMps := cfg.BusSpeedKph / 3.6
		for si := 0; si+1 < len(pts); si++ {
			meters := geo.DistanceMeters(pts[si], pts[si+1])
			legSeconds[si] = gtfs.Seconds(meters/speedMps) + 15 // dwell
		}
		// Timetable both directions, 05:30 to 23:00.
		c.addTrips(feed, routeID, ri, stopIDs, legSeconds, rng)
	}
	c.Feed = feed
}

// addTrips emits weekday trips in both directions with peak/off-peak
// headways.
func (c *City) addTrips(feed *gtfs.Feed, routeID gtfs.RouteID, ri int, stops []gtfs.StopID, legs []gtfs.Seconds, rng *rand.Rand) {
	cfg := c.Config
	type band struct {
		start, end, headway gtfs.Seconds
	}
	bands := []band{
		{5*3600 + 1800, 7 * 3600, cfg.OffPeakHeadway},
		{7 * 3600, 9 * 3600, cfg.PeakHeadway},
		{9 * 3600, 16 * 3600, cfg.OffPeakHeadway},
		{16 * 3600, 18 * 3600, cfg.PeakHeadway},
		{18 * 3600, 23 * 3600, cfg.OffPeakHeadway},
	}
	trip := 0
	emit := func(dir string, ids []gtfs.StopID) {
		offset := gtfs.Seconds(rng.Intn(300)) // desynchronize routes
		for _, b := range bands {
			for dep := b.start + offset; dep < b.end; dep += b.headway {
				sts := make([]gtfs.StopTime, len(ids))
				t := dep
				for si, sid := range ids {
					arr := t
					depT := t
					if si > 0 && si < len(ids)-1 {
						depT = t + 5 // mid-route dwell
					}
					sts[si] = gtfs.StopTime{StopID: sid, Arrival: arr, Departure: depT, Seq: si + 1}
					if si < len(legs) {
						if dir == "out" {
							t = depT + legs[si]
						} else {
							t = depT + legs[len(legs)-1-si]
						}
					}
				}
				tr := gtfs.Trip{
					ID:        gtfs.TripID(fmt.Sprintf("TR_%d_%s_%d", ri, dir, trip)),
					RouteID:   routeID,
					ServiceID: "WEEKDAY",
					Headsign:  string(ids[len(ids)-1]),
					StopTimes: sts,
				}
				trip++
				if err := feed.AddTrip(tr); err != nil {
					panic(err) // construction invariant violated
				}
			}
		}
	}
	emit("out", stops)
	rev := make([]gtfs.StopID, len(stops))
	for i, s := range stops {
		rev[len(stops)-1-i] = s
	}
	emit("back", rev)
}

// densify interpolates a polyline so consecutive points are spacing meters
// apart.
func densify(path []geo.Point, spacing float64) []geo.Point {
	if len(path) == 0 {
		return nil
	}
	out := []geo.Point{path[0]}
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		d := geo.DistanceMeters(a, b)
		steps := int(d / spacing)
		for s := 1; s <= steps; s++ {
			f := float64(s) / float64(steps+1)
			out = append(out, geo.Point{
				Lat: a.Lat + (b.Lat-a.Lat)*f,
				Lon: a.Lon + (b.Lon-a.Lon)*f,
			})
		}
		out = append(out, b)
	}
	return out
}

// generatePOIs places each category with its own spatial logic.
func (c *City) generatePOIs(rng *rand.Rand) {
	cfg := c.Config
	id := 0
	for _, cat := range AllCategories {
		n := cfg.POICounts[cat]
		pois := make([]POI, 0, n)
		for i := 0; i < n; i++ {
			var p geo.Point
			switch cat {
			case POISchool:
				// Schools track population density.
				p = samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, cfg.DensityScale*1.1)
			case POIHospital:
				// Hospitals: a few central, the rest spread widely.
				scale := 0.8
				if i == 0 {
					scale = 0.15
				}
				p = samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, scale)
			case POIVaxCenter:
				// Vaccination centers: deliberately dispersed.
				p = samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, 0.9)
			case POIJobCenter:
				// Job centers: central and sub-centers.
				p = samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, 0.35)
			default:
				p = samplePointInCity(rng, cfg.Center, cfg.RadiusMeters, cfg.DensityScale)
			}
			pois = append(pois, POI{
				ID: id, Category: cat, Point: p,
				Name: fmt.Sprintf("%s-%d", cat, i),
			})
			id++
		}
		c.POIs[cat] = pois
	}
}

// weld snaps zones and transit stops onto their nearest road nodes so
// multimodal journeys can move between layers.
func (c *City) weld() {
	nodes := c.Road.NumNodes()
	items := make([]spatial.Item, nodes)
	for i := 0; i < nodes; i++ {
		items[i] = spatial.Item{ID: i, Point: c.Road.Point(graph.NodeID(i))}
	}
	tree := spatial.NewKDTree(items)
	snap := func(q geo.Point) graph.NodeID {
		nb, ok := tree.Nearest(q)
		if !ok {
			return graph.InvalidNode
		}
		return graph.NodeID(nb.Item.ID)
	}
	c.ZoneNode = make([]graph.NodeID, len(c.Zones))
	for i, z := range c.Zones {
		c.ZoneNode[i] = snap(z.Centroid)
	}
	c.StopNode = make(map[gtfs.StopID]graph.NodeID, len(c.Feed.Stops))
	for _, s := range c.Feed.Stops {
		c.StopNode[s.ID] = snap(s.Point)
	}
}
