package collector

import (
	"errors"
	"net"
	"sync"
	"time"

	"mcorr/internal/obs"
)

// TenantRouter routes collector traffic to per-tenant sinks. The server
// resolves the tenant an agent names in its hello frame ("" for the
// legacy hello with no tenant field) once per connection; every batch
// the connection delivers is appended to that tenant's sink and counted
// against that tenant's rate limit.
//
// mcorr's tenant Registry satisfies this interface; tests supply small
// fakes.
type TenantRouter interface {
	// SinkFor resolves a wire tenant name (possibly "") to the canonical
	// tenant name and its sink. An error refuses the connection.
	SinkFor(tenant string) (name string, sink Sink, err error)
	// TenantLimit returns a tenant's ingest rate limit in samples per
	// second and its token-bucket burst in samples. Rate 0 disables the
	// limit; burst 0 picks max(rate, MaxBatch).
	TenantLimit(name string) (rate float64, burst int)
}

// NewTenantServer returns a server that routes every connection's
// batches through the router instead of a single fixed sink. logger may
// be nil to discard diagnostics.
func NewTenantServer(router TenantRouter, logger *obs.Logger) (*Server, error) {
	if router == nil {
		return nil, errors.New("collector: nil tenant router")
	}
	if logger == nil {
		logger = obs.NopLogger()
	}
	s := &Server{
		log:      logger.With("component", "collector"),
		conns:    make(map[net.Conn]*AgentStatus),
		readIdle: 2 * time.Minute,
	}
	s.SetTenantRouter(router)
	return s, nil
}

// SetTenantRouter installs (or replaces) the tenant router. Must be
// called before Serve. With a router installed the server's fixed sink
// (if any) is bypassed: every connection resolves its sink through the
// router at hello time, and tenant-level token buckets meter ingest per
// tenant ahead of the per-agent limit.
func (s *Server) SetTenantRouter(r TenantRouter) {
	s.router = r
	s.tlimiter = &tenantLimiter{buckets: make(map[string]*tokenBucket)}
}

// tenantLimiter applies per-tenant token-bucket rate limits. Unlike the
// per-agent limiter, the rate and burst are supplied per call (each
// tenant has its own quota, looked up from the router), so buckets for
// different tenants refill at different speeds. Cardinality is bounded
// by tenant count.
type tenantLimiter struct {
	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

// forget drops a tenant's token bucket so closed tenants do not pin
// limiter state forever.
func (l *tenantLimiter) forget(tenant string) {
	l.mu.Lock()
	delete(l.buckets, tenant)
	l.mu.Unlock()
}

// ForgetTenant tears down the server-side footprint of a closed tenant:
// the tenant-labeled mcorr_flow_* series, the tenant's rate-limit
// bucket, and the per-agent mcorr_flow_* label children of every agent
// whose live connections all belong to that tenant. Without it, a
// tenant whose agents never disconnect leaks its label children forever
// — the per-agent cleanup only runs on an agent's last disconnect,
// which never comes for a long-lived idle connection.
//
// Safe to call while the agents are still connected: a surviving
// connection that keeps sending merely fails against the closed
// tenant's sink, and any series it re-creates is deleted again when the
// connection finally drops.
func (s *Server) ForgetTenant(name string) {
	s.mu.Lock()
	// An agent name may appear on connections of several tenants (shared
	// relays); only forget names whose every connection is in the closed
	// tenant.
	owned := make(map[string]bool)
	for _, st := range s.conns {
		if st.Name == "" {
			continue
		}
		if st.Tenant == name {
			if _, seen := owned[st.Name]; !seen {
				owned[st.Name] = true
			}
		} else {
			owned[st.Name] = false
		}
	}
	s.mu.Unlock()
	for agent, only := range owned {
		if !only {
			continue
		}
		obsAgentLastSeen.Delete(agent)
		obsFlowAgentRate.Delete(agent)
		if s.limiter != nil {
			s.limiter.forget(agent)
		}
		if s.meter != nil {
			s.meter.forget(agent)
		}
	}
	obsFlowTenantSamples.Delete(name)
	obsFlowTenantThrottled.Delete(name)
	if s.tlimiter != nil {
		s.tlimiter.forget(name)
	}
}

// take is tokenBucket.take on the tenant's bucket, at the rate and burst
// of the tenant's quota (burst <= 0: defaultBurst).
func (l *tenantLimiter) take(tenant string, rate float64, burst float64, n int, now time.Time) (ok bool, wait time.Duration, credit int) {
	if burst <= 0 {
		burst = defaultBurst(rate)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[tenant]
	if !found {
		b = &tokenBucket{tokens: burst, last: now}
		l.buckets[tenant] = b
	}
	return b.take(rate, burst, n, now)
}
