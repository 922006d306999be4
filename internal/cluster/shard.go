package cluster

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/resilience"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// ShardState is a backend's placement eligibility.
type ShardState string

const (
	// ShardHealthy accepts new placements.
	ShardHealthy ShardState = "healthy"
	// ShardUnhealthy takes no placements; its inflight jobs are
	// rerouted as their watchers notice the loss. Health probes promote
	// it back to healthy when it answers again.
	ShardUnhealthy ShardState = "unhealthy"
	// ShardDraining takes no new placements but keeps its inflight jobs
	// until they finish — the graceful way to retire a backend.
	ShardDraining ShardState = "draining"
)

// ShardConfig names one rmcrtd backend.
type ShardConfig struct {
	// Name identifies the shard in metrics, statuses and admin calls
	// (defaults to s<index> when empty).
	Name string
	// URL is the backend's base URL, e.g. http://10.0.0.7:8372.
	URL string
}

// Shard is one rmcrtd backend as the router sees it: a base URL plus
// health and load state. All mutable state is behind its own mutex so
// routers and watchers can read it without holding the cluster lock.
type Shard struct {
	name string
	url  string
	api  *service.Client // the job API at url, set by New

	mu       sync.Mutex
	state    ShardState
	inflight int // jobs dispatched here and not yet terminal
	fails    int // consecutive failed health probes

	// breaker is the shard's placement circuit: consecutive
	// placement-path failures open it, and recovery flows through a
	// single half-open probe placement. nil when breakers are disabled.
	// Health probes deliberately do not feed it — liveness (healthLoop)
	// and request-level failure (breaker) are separate signals, and a
	// shard that answers /healthz but torches every solve stays tripped.
	breaker *resilience.Breaker

	gInflight *metrics.Gauge
	gUp       *metrics.Gauge // 1 = healthy, 0 = unhealthy or draining
}

// BreakerState returns the shard's circuit position (closed when
// breakers are disabled).
func (s *Shard) BreakerState() resilience.BreakerState {
	if s.breaker == nil {
		return resilience.BreakerClosed
	}
	return s.breaker.State()
}

// recordFailure feeds one placement-path failure to the breaker.
func (s *Shard) recordFailure(now time.Time) {
	if s.breaker != nil {
		s.breaker.Failure(now)
	}
}

// recordSuccess feeds one placement-path success to the breaker.
func (s *Shard) recordSuccess() {
	if s.breaker != nil {
		s.breaker.Success()
	}
}

// Name returns the shard's configured name.
func (s *Shard) Name() string { return s.name }

// URL returns the shard's base URL.
func (s *Shard) URL() string { return s.url }

// State returns the shard's current placement state.
func (s *Shard) State() ShardState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Inflight returns how many router-dispatched jobs the shard holds.
func (s *Shard) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

func (s *Shard) addInflight(d int) {
	s.mu.Lock()
	s.inflight += d
	n := s.inflight
	s.mu.Unlock()
	if s.gInflight != nil {
		s.gInflight.Set(int64(n))
	}
}

// setState transitions the shard, keeping the up-gauge in sync.
// Draining is sticky: a health probe cannot promote a draining shard
// back to healthy — only Undrain does.
func (s *Shard) setState(st ShardState) {
	s.mu.Lock()
	if s.state == ShardDraining && st == ShardHealthy {
		s.mu.Unlock()
		return
	}
	s.state = st
	s.mu.Unlock()
	if s.gUp != nil {
		if st == ShardHealthy {
			s.gUp.Set(1)
		} else {
			s.gUp.Set(0)
		}
	}
}

// placeable reports whether the shard may take a new job: healthy,
// under the per-shard dispatch cap, and with its circuit not open. A
// half-open circuit admits exactly one probe at a time (inflight must
// be zero), so a recovering shard is tested with a single job instead
// of a thundering herd.
func (s *Shard) placeable(limit int) bool {
	s.mu.Lock()
	ok := s.state == ShardHealthy && (limit <= 0 || s.inflight < limit)
	inflight := s.inflight
	s.mu.Unlock()
	if !ok || s.breaker == nil {
		return ok
	}
	if !s.breaker.Ready(time.Now()) {
		return false
	}
	return s.breaker.State() != resilience.BreakerHalfOpen || inflight == 0
}

// metricName sanitizes a shard name into a metrics series suffix.
func metricName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}

// ShardRegistry is the fixed set of backends a cluster serves through,
// with by-name lookup and drain control. The set is immutable after
// construction; only the per-shard states change.
type ShardRegistry struct {
	shards []*Shard
	byName map[string]*Shard
}

// NewShardRegistry builds the registry, naming anonymous shards
// s0, s1, ... in order, and registers per-shard inflight/up gauges when
// reg is non-nil.
func NewShardRegistry(cfgs []ShardConfig, reg *metrics.Registry) (*ShardRegistry, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	r := &ShardRegistry{byName: make(map[string]*Shard, len(cfgs))}
	for i, c := range cfgs {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("s%d", i)
		}
		if c.URL == "" {
			return nil, fmt.Errorf("cluster: shard %q has no URL", name)
		}
		if _, dup := r.byName[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", name)
		}
		s := &Shard{name: name, url: strings.TrimRight(c.URL, "/"), state: ShardHealthy}
		if reg != nil {
			mn := metricName(name)
			s.gInflight = reg.Gauge("router_shard_"+mn+"_inflight", "jobs dispatched to shard "+name+" and not yet terminal")
			s.gUp = reg.Gauge("router_shard_"+mn+"_up", "1 when shard "+name+" accepts placements")
			s.gUp.Set(1)
		}
		r.shards = append(r.shards, s)
		r.byName[name] = s
	}
	return r, nil
}

// Shards returns every shard in configuration order.
func (r *ShardRegistry) Shards() []*Shard { return r.shards }

// Get returns the named shard, nil when unknown.
func (r *ShardRegistry) Get(name string) *Shard { return r.byName[name] }

// Placeable returns the shards eligible for a new placement under the
// per-shard cap, in configuration order.
func (r *ShardRegistry) Placeable(limit int) []*Shard {
	out := make([]*Shard, 0, len(r.shards))
	for _, s := range r.shards {
		if s.placeable(limit) {
			out = append(out, s)
		}
	}
	return out
}

// Healthy returns how many shards currently accept placements
// (ignoring the inflight cap).
func (r *ShardRegistry) Healthy() int {
	n := 0
	for _, s := range r.shards {
		if s.State() == ShardHealthy {
			n++
		}
	}
	return n
}

// Drain retires the named shard from placement; inflight jobs finish
// where they are.
func (r *ShardRegistry) Drain(name string) error {
	s := r.byName[name]
	if s == nil {
		return fmt.Errorf("cluster: no shard %q", name)
	}
	s.setState(ShardDraining)
	return nil
}

// Undrain returns a draining shard to service (the next health probe
// may still demote it if the backend is gone).
func (r *ShardRegistry) Undrain(name string) error {
	s := r.byName[name]
	if s == nil {
		return fmt.Errorf("cluster: no shard %q", name)
	}
	s.mu.Lock()
	if s.state == ShardDraining {
		s.state = ShardHealthy
	}
	st := s.state
	s.mu.Unlock()
	if s.gUp != nil && st == ShardHealthy {
		s.gUp.Set(1)
	}
	return nil
}
