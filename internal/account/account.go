// Package account implements per-domain resource accounting.
//
// The paper (§2, "Resource Accounting") observes that object sharing makes
// it unclear whom to charge for memory and CPU, quoting Hydra: "No one
// 'owns' an object ... thus it's very hard to know to whom the cost of
// maintaining it should be charged." The J-Kernel's copy-based calling
// convention makes ownership crisp again — every non-capability object
// lives in exactly one domain — so charges have an unambiguous home. This
// package meters allocation, interpreter work, copied bytes, loaded class
// metadata, and cross-domain calls per domain, with pluggable policies for
// who pays LRMI copy costs (the open design point the paper discusses).
package account

import (
	"fmt"
	"sort"
	"sync"
)

// CopyPolicy selects who pays for LRMI argument copying.
type CopyPolicy uint8

const (
	// ChargeCaller bills the invoking domain (it chose to pass the data).
	ChargeCaller CopyPolicy = iota
	// ChargeCallee bills the receiving domain (the copy becomes its state).
	ChargeCallee
	// ChargeSplit bills each side half, rounding the odd byte to the caller.
	ChargeSplit
)

func (p CopyPolicy) String() string {
	switch p {
	case ChargeCaller:
		return "caller"
	case ChargeCallee:
		return "callee"
	case ChargeSplit:
		return "split"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Stats is a snapshot of one domain's charges.
type Stats struct {
	AllocBytes int64 // heap allocation
	Steps      int64 // interpreter instructions
	CopyBytes  int64 // LRMI argument/result copying
	ClassBytes int64 // class metadata
	CrossCalls int64 // LRMI invocations initiated
	Revoked    int64 // capabilities revoked by/for this domain, each once; none collected unrevoked
}

// Total returns the byte-denominated charges (steps and calls excluded).
func (s Stats) Total() int64 { return s.AllocBytes + s.CopyBytes + s.ClassBytes }

// Meter aggregates charges per domain id. The zero Meter is ready to use
// with the default policy (ChargeCaller).
type Meter struct {
	mu      sync.Mutex
	domains map[int64]*Stats
	policy  CopyPolicy
	frozen  map[int64]bool
}

// NewMeter creates a Meter with the given copy policy.
func NewMeter(policy CopyPolicy) *Meter {
	return &Meter{policy: policy}
}

// Policy returns the meter's copy policy.
func (m *Meter) Policy() CopyPolicy {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.policy
}

// SetPolicy changes the copy policy for subsequent charges.
func (m *Meter) SetPolicy(p CopyPolicy) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policy = p
}

func (m *Meter) stats(domain int64) *Stats {
	if m.domains == nil {
		m.domains = make(map[int64]*Stats)
	}
	s, ok := m.domains[domain]
	if !ok {
		s = &Stats{}
		m.domains[domain] = s
	}
	return s
}

// Alloc charges domain for bytes of heap allocation.
func (m *Meter) Alloc(domain, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen[domain] {
		return
	}
	m.stats(domain).AllocBytes += bytes
}

// Steps charges domain for interpreter work.
func (m *Meter) Steps(domain, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen[domain] {
		return
	}
	m.stats(domain).Steps += n
}

// Class charges domain for class metadata.
func (m *Meter) Class(domain, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen[domain] {
		return
	}
	m.stats(domain).ClassBytes += bytes
}

// CrossCall records an LRMI initiated by caller and applies the copy
// charge for bytes according to the policy.
func (m *Meter) CrossCall(caller, callee, bytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats(caller).CrossCalls++
	switch m.policy {
	case ChargeCaller:
		m.stats(caller).CopyBytes += bytes
	case ChargeCallee:
		m.stats(callee).CopyBytes += bytes
	case ChargeSplit:
		half := bytes / 2
		m.stats(caller).CopyBytes += bytes - half
		m.stats(callee).CopyBytes += half
	}
}

// RevokeCount records n capability revocations attributed to domain.
func (m *Meter) RevokeCount(domain, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats(domain).Revoked += n
}

// Freeze stops further charges to domain (used at domain termination: a
// dead domain cannot accrue new costs, reproducing "clean semantics of
// domain termination" for the accounting dimension).
func (m *Meter) Freeze(domain int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frozen == nil {
		m.frozen = make(map[int64]bool)
	}
	m.frozen[domain] = true
}

// Snapshot returns a copy of domain's stats.
func (m *Meter) Snapshot(domain int64) Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.domains[domain]; ok {
		return *s
	}
	return Stats{}
}

// Domains returns the ids with recorded charges, sorted.
func (m *Meter) Domains() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]int64, 0, len(m.domains))
	for id := range m.domains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// GrandTotal sums a field across all domains; used by conservation tests:
// however the copy policy splits a charge, the sum over domains equals the
// bytes charged.
func (m *Meter) GrandTotal(f func(Stats) int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, s := range m.domains {
		total += f(*s)
	}
	return total
}
