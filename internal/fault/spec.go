package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec configures a fault plan. Its textual form ("seed=7,transient=0.05,
// depth=2,retries=3") is what flags, RunConfig.Faults and the daemon's
// -chaos option carry; String renders it canonically so equal specs always
// produce equal cache keys.
//
// lint:cachekey — injection parameters change results, so all must reach String().
type Spec struct {
	// Seed roots every decision the plan makes.
	Seed uint64
	// rates holds the per-kind fire probability in [0, 1], indexed by Kind.
	rates [kindCount]float64
	// Depth is the maximum number of attempts a retryable fault persists
	// before clearing (each faulted coordinate draws its own depth in
	// [1, Depth]). Defaults to 2.
	Depth int
	// Retries is the re-attempt budget: how many times a failed group read
	// is re-measured before its events are dropped and, in a daemon's chaos
	// spec, how many times a transiently faulted async job is re-run.
	// Retries >= Depth guarantees every transient fault recovers. Defaults
	// to 3.
	Retries int
}

const (
	defaultDepth   = 2
	defaultRetries = 3
)

// Rate returns the fire probability for a kind.
func (s Spec) Rate(k Kind) float64 {
	if int(k) >= kindCount {
		return 0
	}
	return s.rates[k]
}

func (s Spec) withDefaults() Spec {
	if s.Depth < 1 {
		s.Depth = defaultDepth
	}
	if s.Retries < 0 {
		s.Retries = defaultRetries
	}
	return s
}

// specKinds lists the kinds with spec keys, in the canonical rendering
// order (severity order, matching the per-site consultation order).
var specKinds = []Kind{Panic, Corrupt, Transient, Slow, HTTP503, HTTPTimeout}

// String renders the spec canonically: seed first, then every nonzero rate
// in a fixed kind order, then depth and retries when they differ from the
// defaults. Parse(s.String()) reproduces s, and equal specs always render
// identically — the property RunConfig cache keys rely on.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	for _, k := range specKinds {
		if rate := s.rates[k]; rate > 0 {
			fmt.Fprintf(&b, ",%s=%g", k, rate)
		}
	}
	d := s.withDefaults()
	if d.Depth != defaultDepth {
		fmt.Fprintf(&b, ",depth=%d", d.Depth)
	}
	if d.Retries != defaultRetries {
		fmt.Fprintf(&b, ",retries=%d", d.Retries)
	}
	return b.String()
}

// ParseSpec parses a comma-separated key=value fault spec. Keys: seed,
// depth, retries, and one rate key per kind (panic, corrupt, transient,
// slow, http503, timeout). Unknown keys, malformed values and rates outside
// [0, 1] are errors; an empty string is an error (callers represent
// "injection off" as the absence of a spec, not as a spec of zeros).
func ParseSpec(text string) (Spec, error) {
	var s Spec
	s.Retries = -1 // sentinel: distinguish "retries=0" from "unset"
	if strings.TrimSpace(text) == "" {
		return Spec{}, fmt.Errorf("fault: empty spec")
	}
	for _, field := range strings.Split(text, ",") {
		key, value, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Spec{}, fmt.Errorf("fault: spec field %q is not key=value", field)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad seed %q: %v", value, err)
			}
			s.Seed = seed
		case "depth":
			n, err := strconv.Atoi(value)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("fault: depth must be a positive integer, got %q", value)
			}
			s.Depth = n
		case "retries":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return Spec{}, fmt.Errorf("fault: retries must be a non-negative integer, got %q", value)
			}
			s.Retries = n
		default:
			k, ok := kindByName(key)
			if !ok {
				return Spec{}, fmt.Errorf("fault: unknown spec key %q", key)
			}
			rate, err := strconv.ParseFloat(value, 64)
			// The inverted range check also rejects NaN, which ParseFloat
			// accepts.
			if err != nil || !(rate >= 0 && rate <= 1) {
				return Spec{}, fmt.Errorf("fault: %s rate must be in [0, 1], got %q", key, err2str(value, err))
			}
			s.rates[k] = rate
		}
	}
	if s.Retries < 0 {
		s.Retries = defaultRetries
	}
	return s.withDefaults(), nil
}

func err2str(value string, err error) string {
	if err != nil {
		return value + " (" + err.Error() + ")"
	}
	return value
}

func kindByName(name string) (Kind, bool) {
	for _, k := range specKinds {
		if k.String() == name {
			return k, true
		}
	}
	return None, false
}

// Parse parses a spec and wraps it in a plan; the one-call form injection
// points use.
func Parse(text string) (*Plan, error) {
	spec, err := ParseSpec(text)
	if err != nil {
		return nil, err
	}
	return NewPlan(spec), nil
}
