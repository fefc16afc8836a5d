package core

import (
	"fmt"
	"strconv"
	"strings"
)

// PolicyKind enumerates the eviction policies in this package.
type PolicyKind uint8

// The available policy families.
const (
	PolicyFlush PolicyKind = iota
	PolicyUnits
	PolicyFine
	PolicyLRU
	PolicyCompactingLRU
	PolicyAdaptive
	PolicyPreemptive
	PolicyGenerational
)

// Policy is a declarative cache specification, the unit of parameter
// sweeps in the experiment harness.
type Policy struct {
	Kind  PolicyKind
	Units int // for PolicyUnits (>= 2) and the tenured side of generational
}

// String names the policy the way the paper labels its x-axes.
func (p Policy) String() string {
	switch p.Kind {
	case PolicyFlush:
		return "FLUSH"
	case PolicyUnits:
		return fmt.Sprintf("%d-unit", p.Units)
	case PolicyFine:
		return "FIFO"
	case PolicyLRU:
		return "LRU"
	case PolicyCompactingLRU:
		return "compacting-LRU"
	case PolicyAdaptive:
		return "adaptive"
	case PolicyPreemptive:
		return "preemptive"
	case PolicyGenerational:
		return fmt.Sprintf("generational/%d", p.Units)
	default:
		return fmt.Sprintf("policy(%d)", p.Kind)
	}
}

// New instantiates the policy over a cache of the given capacity.
func (p Policy) New(capacity int) (Cache, error) {
	switch p.Kind {
	case PolicyFlush:
		return NewFlush(capacity)
	case PolicyUnits:
		return NewUnits(capacity, p.Units)
	case PolicyFine:
		return NewFine(capacity)
	case PolicyLRU:
		return NewLRU(capacity)
	case PolicyCompactingLRU:
		return NewCompactingLRU(capacity)
	case PolicyAdaptive:
		return NewAdaptive(AdaptiveConfig{Capacity: capacity})
	case PolicyPreemptive:
		return NewPreemptiveFlush(capacity, 0, 0, 0)
	case PolicyGenerational:
		units := p.Units
		if units == 0 {
			units = 8
		}
		return NewGenerational(capacity, 0.25, units, 2)
	default:
		return nil, fmt.Errorf("core: unknown policy kind %d", p.Kind)
	}
}

// Migratable reports whether a tenant's whole per-span policy state
// travels in a TenantState, so that SpanMigrator extract/install keeps
// solo replay equality. Adaptive and preemptive embed *FIFOCache and
// inherit its SpanMigrator methods, but their controller and phase
// detector are cache-wide and would stay behind on the source;
// generational does not implement SpanMigrator at all.
func (p Policy) Migratable() bool {
	switch p.Kind {
	case PolicyFlush, PolicyUnits, PolicyFine, PolicyLRU, PolicyCompactingLRU:
		return true
	}
	return false
}

// ParsePolicy parses a policy display name: "flush", "fifo" (or "fine"),
// "lru", "compacting-lru", "adaptive", "preemptive", "N-unit" (e.g. "8-unit",
// with "1-unit" meaning FLUSH), or "generational/N" (bare "generational"
// defaults to 8 tenured units). It accepts every name
// Policy.String produces.
func ParsePolicy(s string) (Policy, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "flush":
		return Policy{Kind: PolicyFlush}, nil
	case "fifo", "fine":
		return Policy{Kind: PolicyFine}, nil
	case "lru":
		return Policy{Kind: PolicyLRU}, nil
	case "compacting-lru":
		return Policy{Kind: PolicyCompactingLRU}, nil
	case "adaptive":
		return Policy{Kind: PolicyAdaptive}, nil
	case "preemptive", "preemptive-flush":
		return Policy{Kind: PolicyPreemptive}, nil
	case "generational":
		return Policy{Kind: PolicyGenerational, Units: 8}, nil
	}
	if rest, ok := strings.CutPrefix(s, "generational/"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return Policy{}, fmt.Errorf("core: bad generational unit count %q", rest)
		}
		return Policy{Kind: PolicyGenerational, Units: n}, nil
	}
	if unitStr, ok := strings.CutSuffix(s, "-unit"); ok {
		n, err := strconv.Atoi(unitStr)
		if err != nil || n < 1 {
			return Policy{}, fmt.Errorf("core: bad unit count %q", unitStr)
		}
		if n == 1 {
			return Policy{Kind: PolicyFlush}, nil
		}
		return Policy{Kind: PolicyUnits, Units: n}, nil
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q", s)
}

// GranularitySweep returns the paper's x-axis: FLUSH, then 2..maxUnits
// cache units in powers of two, then fine-grained FIFO. This is the sweep
// behind Figures 6-8, 10-11, and 13-15.
func GranularitySweep(maxUnits int) []Policy {
	ps := []Policy{{Kind: PolicyFlush}}
	for n := 2; n <= maxUnits; n *= 2 {
		ps = append(ps, Policy{Kind: PolicyUnits, Units: n})
	}
	return append(ps, Policy{Kind: PolicyFine})
}
