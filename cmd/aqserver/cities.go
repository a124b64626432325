// The /v1/cities resource — the tenant list, one tenant's detail, and its
// scenario of network deltas (the snapshot store is in snapshots.go) — and
// the per-city collections /v1/zones and /v1/journey, which select their
// tenant with ?city=.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"accessquery/internal/delta"
	"accessquery/internal/gtfs"
	"accessquery/internal/registry"
	"accessquery/internal/synth"
)

// tenantFor resolves a city name (a {name} path value or ?city=) to a
// tenant; a blank name is the registry's first city. A miss is answered
// 404 unknown_city and returns false.
func (s *server) tenantFor(w http.ResponseWriter, name string) (*registry.Tenant, bool) {
	tn, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownCity,
			fmt.Sprintf("unknown city %q (serving: %s)", name, strings.Join(s.reg.Names(), ", ")))
		return nil, false
	}
	return tn, true
}

// cityBody shapes one tenant for the /v1/cities responses: the registry's
// epoch/provenance info plus the serving layer's breaker state for that
// city.
func (s *server) cityBody(info registry.Info) map[string]interface{} {
	body := map[string]interface{}{
		"name":      info.Name,
		"epoch":     info.Epoch,
		"built":     info.Built,
		"source":    info.Source,
		"zones":     info.Zones,
		"stops":     info.Stops,
		"routes":    info.Routes,
		"interval":  info.Interval,
		"swaps":     info.Swaps,
		"in_flight": info.InFlight,
		"prep_ms":   info.PrepMS,
	}
	for _, ts := range s.mgr.TenantStats() {
		if ts.City == info.Name {
			body["breaker_open"] = ts.BreakerOpen
			body["serve"] = ts
			break
		}
	}
	return body
}

// handleCities serves GET /v1/cities — every tenant with its epoch, build
// provenance, and breaker state.
func (s *server) handleCities(w http.ResponseWriter, _ *http.Request) {
	infos := s.reg.Infos()
	cities := make([]map[string]interface{}, 0, len(infos))
	for _, info := range infos {
		cities = append(cities, s.cityBody(info))
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"default": s.reg.DefaultName(),
		"cities":  cities,
	})
}

// getCity serves GET /v1/cities/{name}: the tenant's detail including the
// POI catalogue.
func (s *server) getCity(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	engine, _, release := tn.Acquire()
	defer release()
	body := s.cityBody(tn.Info())
	pois := map[synth.POICategory]int{}
	for cat, list := range engine.City.POIs {
		pois[cat] = len(list)
	}
	body["pois"] = pois
	body["road_nodes"] = engine.City.Road.NumNodes()
	body["trips"] = len(engine.City.Feed.Trips)
	if sc := engine.Scenario; sc != nil {
		body["scenario_deltas"] = sc.Deltas
	}
	if src := engine.SnapshotInfo(); src != nil {
		body["snapshot"] = src
	}
	writeJSON(w, http.StatusOK, body)
}

// applyScenario serves POST /v1/cities/{name}/scenario. It applies one
// mutation batch {"mutations": [...]} on top of the tenant's scenario
// (starting one from the current engine if none is active): only the
// batch's blast radius is rebuilt, the derived engine is installed as a new
// epoch, and the response carries the applied delta with its blast radius
// (201 + Location). Invalid mutations are refused with 422 bad_mutation and
// the current epoch keeps serving.
func (s *server) applyScenario(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	var body struct {
		Mutations []delta.Mutation `json:"mutations"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(body.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			`want {"mutations": [...]} with at least one mutation`)
		return
	}
	info, applied, _, err := tn.ApplyScenario(body.Mutations)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, codeBadMutation, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/cities/"+tn.Name+"/scenario")
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"city":  s.cityBody(info),
		"delta": applied,
	})
}

// getScenario serves GET /v1/cities/{name}/scenario: the baseline epoch and
// every applied delta.
func (s *server) getScenario(w http.ResponseWriter, r *http.Request) {
	if tn, ok := s.tenantFor(w, r.PathValue("name")); ok {
		writeJSON(w, http.StatusOK, tn.Scenario())
	}
}

// revertScenario serves DELETE /v1/cities/{name}/scenario: it reinstalls
// the pinned baseline as a fresh epoch (404 when no scenario is active).
func (s *server) revertScenario(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.PathValue("name"))
	if !ok {
		return
	}
	info, retired, err := tn.RevertScenario()
	if errors.Is(err, registry.ErrNoScenario) {
		writeError(w, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	out := map[string]interface{}{"city": s.cityBody(info)}
	if retired != nil {
		out["retired_epoch"] = retired.Epoch
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleZones(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r.URL.Query().Get("city"))
	if !ok {
		return
	}
	engine, _, release := tn.Acquire()
	defer release()
	writeJSON(w, http.StatusOK, engine.City.Zones)
}

func (s *server) handleJourney(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	tn, ok := s.tenantFor(w, q.Get("city"))
	if !ok {
		return
	}
	engine, _, release := tn.Acquire()
	defer release()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "from and to must be zone indices")
		return
	}
	c := engine.City
	if from < 0 || from >= len(c.Zones) || to < 0 || to >= len(c.Zones) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "zone index out of range")
		return
	}
	depart := gtfs.Seconds(8 * 3600)
	if ds := q.Get("depart"); ds != "" {
		var err error
		depart, err = gtfs.ParseSeconds(ds)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "bad depart time, want HH:MM:SS")
			return
		}
	}
	j, legs, ok, err := engine.Router().RouteDetailed(c.ZoneNode[from], c.ZoneNode[to], depart)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "no journey within the search horizon")
		return
	}
	type legOut struct {
		Mode   string `json:"mode"`
		Depart string `json:"depart"`
		Arrive string `json:"arrive"`
		Route  string `json:"route,omitempty"`
		Board  string `json:"board_stop,omitempty"`
		Alight string `json:"alight_stop,omitempty"`
	}
	outLegs := make([]legOut, len(legs))
	for i, leg := range legs {
		outLegs[i] = legOut{
			Mode:   leg.Mode.String(),
			Depart: leg.Depart.String(),
			Arrive: leg.Arrive.String(),
			Route:  string(leg.Route),
			Board:  string(leg.BoardStop),
			Alight: string(leg.AlightStop),
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"depart":        j.Depart.String(),
		"arrive":        j.Arrive.String(),
		"minutes":       j.Duration() / 60,
		"access_walk_s": j.AccessWalk,
		"wait_s":        j.Wait,
		"in_vehicle_s":  j.InVehicle,
		"egress_walk_s": j.EgressWalk,
		"boardings":     j.Boardings,
		"fare_pence":    j.Fare,
		"walk_only":     j.WalkOnly(),
		"legs":          outLegs,
	})
}
