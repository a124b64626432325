// Package fault is the deterministic fault- and latency-injection layer
// behind the robustness tests and CI chaos runs. Production code marks the
// stages that talk to expensive or failure-prone machinery — SPQ execution
// in the router, the transit-hop forest build, snapshot load — with a
// Check(site) call; with no injector enabled that call is one atomic
// pointer load. Enabling an injector (the -fault-spec flag on the
// binaries, or Enable in tests) makes those sites fail with transient
// errors and/or stall with injected latency at configured rates.
//
// Injection is seeded and deterministic: the n-th check of a site draws a
// pseudo-random number from a hash of (seed, site, n), so a chaos test
// replays the identical fault pattern on every run. The draw for a given
// (seed, site, n) does not depend on the configured rate, which couples
// runs monotonically: every fault injected at rate 0.01 is also injected,
// at the same draw, at rate 0.2.
//
// Spec grammar (semicolon-separated sites, comma-separated options):
//
//	seed=42;spq:fail=0.05,delay=2ms;hoptree:fail=0.5;snapshot:fail=1
//
// fail is a probability in [0, 1]; delay is a time.Duration added to every
// check of the site (before any failure).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"accessquery/internal/obs"
)

// Injection sites wired into the pipeline. A Spec naming any other site is
// rejected at parse time so typos surface immediately.
const (
	// SiteSPQ is one multimodal shortest-path profile search
	// (router.ProfileFrom), the unit of labeling work.
	SiteSPQ = "spq"
	// SiteHopTree is the per-zone transit-hop tree generation during
	// offline pre-processing.
	SiteHopTree = "hoptree"
	// SiteSnapshot is an engine snapshot load (core.LoadEngine).
	SiteSnapshot = "snapshot"
)

var knownSites = map[string]bool{SiteSPQ: true, SiteHopTree: true, SiteSnapshot: true}

// Error is an injected fault. It reports itself transient: injected faults
// model flaky infrastructure (a stalled SPQ, a hiccuping loader), exactly
// the class of failure retry and degradation paths exist for.
type Error struct {
	Site string
	// Draw is the site-local sequence number of the failed check, for
	// correlating logs across runs of the same seed.
	Draw int64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure at site %q (draw %d)", e.Site, e.Draw)
}

// Transient marks injected faults retryable.
func (e *Error) Transient() bool { return true }

// transienter is the interface retry layers test for. Any error may opt in
// by implementing Transient() bool; injected faults always do.
type transienter interface{ Transient() bool }

// IsTransient reports whether err (or anything it wraps) declares itself a
// transient failure worth retrying.
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(transienter); ok {
			return t.Transient()
		}
		err = errors.Unwrap(err)
	}
	return false
}

// SiteSpec configures one injection site.
type SiteSpec struct {
	// Fail is the per-check failure probability in [0, 1].
	Fail float64
	// Delay is added to every check of the site, before any failure.
	Delay time.Duration
}

// Spec is a parsed fault specification.
type Spec struct {
	Seed  int64
	Sites map[string]SiteSpec
}

// ParseSpec parses the -fault-spec grammar. An empty string yields an
// empty spec (no sites, no faults).
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Sites: make(map[string]SiteSpec)}
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: bad seed %q", v)
			}
			spec.Seed = seed
			continue
		}
		site, opts, ok := strings.Cut(part, ":")
		if !ok {
			return spec, fmt.Errorf("fault: bad site clause %q (want site:opt=v,...)", part)
		}
		site = strings.TrimSpace(site)
		if !knownSites[site] {
			return spec, fmt.Errorf("fault: unknown site %q (want spq, hoptree, or snapshot)", site)
		}
		var ss SiteSpec
		for _, opt := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return spec, fmt.Errorf("fault: bad option %q in site %q", opt, site)
			}
			switch k {
			case "fail":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return spec, fmt.Errorf("fault: bad fail probability %q in site %q", v, site)
				}
				ss.Fail = p
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return spec, fmt.Errorf("fault: bad delay %q in site %q", v, site)
				}
				ss.Delay = d
			default:
				return spec, fmt.Errorf("fault: unknown option %q in site %q", k, site)
			}
		}
		spec.Sites[site] = ss
	}
	return spec, nil
}

// siteState is one site's live configuration and draw counter.
type siteState struct {
	spec     SiteSpec
	draws    atomic.Int64
	injected atomic.Int64
	counter  *obs.CounterMetric
}

// Injector injects faults per a Spec. Safe for concurrent use.
type Injector struct {
	seed  int64
	sites map[string]*siteState
	sleep func(time.Duration) // swapped in tests
}

// New builds an injector from a spec.
func New(spec Spec) *Injector {
	inj := &Injector{seed: spec.Seed, sites: make(map[string]*siteState), sleep: time.Sleep}
	for site, ss := range spec.Sites {
		inj.sites[site] = &siteState{
			spec:    ss,
			counter: obs.Counter(fmt.Sprintf("aq_fault_injected_total{site=%q}", site)),
		}
	}
	return inj
}

// splitmix64 is the standard 64-bit finalizing mixer; good enough to turn
// (seed, site, draw) into an evenly distributed draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(site string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// check draws for one site, sleeping its delay and returning an injected
// error when the draw fires.
func (inj *Injector) check(site string) error {
	st, ok := inj.sites[site]
	if !ok {
		return nil
	}
	if st.spec.Delay > 0 {
		inj.sleep(st.spec.Delay)
	}
	if st.spec.Fail <= 0 {
		return nil
	}
	n := st.draws.Add(1)
	u := splitmix64(uint64(inj.seed) ^ siteHash(site) ^ uint64(n))
	// Top 53 bits to a uniform float in [0, 1).
	if float64(u>>11)/(1<<53) < st.spec.Fail {
		st.injected.Add(1)
		st.counter.Inc()
		return &Error{Site: site, Draw: n}
	}
	return nil
}

// Counts returns the number of injected failures per site so far.
func (inj *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, len(inj.sites))
	for site, st := range inj.sites {
		out[site] = st.injected.Load()
	}
	return out
}

// String renders the injector's configuration for logs.
func (inj *Injector) String() string {
	if inj == nil || len(inj.sites) == 0 {
		return "fault: disabled"
	}
	names := make([]string, 0, len(inj.sites))
	for site := range inj.sites {
		names = append(names, site)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", inj.seed)
	for _, site := range names {
		ss := inj.sites[site].spec
		fmt.Fprintf(&b, ";%s:fail=%g", site, ss.Fail)
		if ss.Delay > 0 {
			fmt.Fprintf(&b, ",delay=%s", ss.Delay)
		}
	}
	return b.String()
}

// active is the process-wide injector; nil means disabled, and the
// disabled fast path in Check is a single atomic load.
var active atomic.Pointer[Injector]

// Enable installs inj as the process-wide injector (nil disables).
// Returns the previous injector, so tests can restore it.
func Enable(inj *Injector) *Injector {
	return active.Swap(inj)
}

// Check is the call production code places at an injection site: it
// consults the process-wide injector (no-op when disabled) and returns an
// injected transient error when the site's draw fires.
func Check(site string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.check(site)
}
