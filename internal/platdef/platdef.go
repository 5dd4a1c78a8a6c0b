// Package platdef defines the loadable platform-definition format: a
// deterministic, canonical text codec describing a platform's raw-event
// catalog — names, documented semantics, linear response coefficients over
// the ideal-event basis, quirks (FMA double-counting, prescalers, derived
// columns), the noise model, and the counter/multiplexing limits.
//
// The format exists so that a new architecture is a *file drop*, not a code
// change: internal/machine loads these definitions into simulated platforms,
// and the committed files under platforms/ are the source of truth for every
// built-in platform (DESIGN.md §15).
//
// The codec is canonical in the strict sense: Canonical(Parse(x)) is a
// fixpoint, field order and whitespace do not affect the loaded value, and
// two definitions are semantically equal iff their canonical bytes are
// equal. Event order is semantic — it determines multiplexing groups and
// downstream tie-breaking — so it is preserved, never sorted.
package platdef

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// Validation bounds. Real catalogs are large (hundreds of thousands of
// events, the paper's motivation) but physical counter files are not
// unbounded; absurd values are authoring mistakes, not platforms.
const (
	// MaxCounters bounds the programmable counter count.
	MaxCounters = 1024
	// MaxFixedSlot bounds a fixed-counter index.
	MaxFixedSlot = 63
	// MaxEvents bounds the catalog size of a single definition file.
	MaxEvents = 1 << 20
	// maxNameLen bounds platform names, event names and stat keys.
	maxNameLen = 256
	// maxDescLen bounds event descriptions.
	maxDescLen = 1024
)

// Error is the typed error every platdef parse or validation failure
// surfaces as. Line is 1-based for text-format errors and 0 for semantic
// errors that are not tied to a source line (programmatic construction).
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("platdef: line %d: %s", e.Line, e.Msg)
	}
	return "platdef: " + e.Msg
}

func errf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Term is one coefficient of a linear combination over ground-truth stat
// keys. Canonical term lists are sorted by key with no duplicate and no zero
// coefficients.
type Term struct {
	Key   string  `json:"key"`
	Coeff float64 `json:"coeff"`
}

// Event describes one raw hardware event; simulated platform catalogs
// (internal/machine) hold these values as loaded. Respond is the silicon's
// actual counting behavior; Doc is what the vendor manual claims (the
// event-trust validator scores the two against each other).
// Documented=false means no documentation at all; Documented=true with an
// empty Doc documents an event that counts nothing the benchmarks exercise —
// a distinction the validator depends on.
type Event struct {
	// Name is the PAPI-style event name, e.g.
	// "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE".
	Name string `json:"name"`
	// Desc is a one-line description (vendor docs are famously thin; so are
	// some of these, deliberately).
	Desc string `json:"desc,omitempty"`
	// RelNoise is the relative run-to-run noise sigma; 0 means the event is
	// deterministic.
	RelNoise float64 `json:"rel_noise,omitempty"`
	// AbsNoise is an additive noise sigma in counts.
	AbsNoise   float64 `json:"abs_noise,omitempty"`
	Respond    []Term  `json:"respond,omitempty"`
	Documented bool    `json:"documented,omitempty"`
	Doc        []Term  `json:"doc,omitempty"`
}

// Count returns the event's ideal (noise-free) count at one benchmark
// point, given the ground-truth stats a workload simulator reports for it.
func (e Event) Count(stats map[string]float64) float64 {
	return sum(e.Respond, stats)
}

// DocExpectation returns the count the event's documentation predicts at
// one benchmark point, or ok=false for an undocumented event.
func (e Event) DocExpectation(stats map[string]float64) (float64, bool) {
	if !e.Documented {
		return 0, false
	}
	return sum(e.Doc, stats), true
}

// sum evaluates a linear combination over stats, reading absent keys as
// zero. Terms are summed in list order, which Validate pins to key order:
// float addition is order-sensitive at the ulp level, and event readings —
// and so every report — must be byte-identical run to run.
func sum(terms []Term, stats map[string]float64) float64 {
	var v float64
	for _, t := range terms {
		v += t.Coeff * stats[t.Key]
	}
	return v
}

// Constraint restricts where one event may be programmed: on a dedicated
// fixed counter (Fixed >= 0) or on a subset of the programmable counters
// (Fixed == -1 with a non-empty Allowed list).
type Constraint struct {
	Event   string `json:"event"`
	Fixed   int    `json:"fixed"`
	Allowed []int  `json:"allowed,omitempty"`
}

// Platform is a complete platform definition.
type Platform struct {
	Name        string       `json:"platform"`
	Class       string       `json:"class"`
	Counters    int          `json:"counters"`
	Constraints []Constraint `json:"constraints,omitempty"`
	Events      []Event      `json:"events"`
}

// validName reports whether s is usable as a platform name, event name or
// stat key: non-empty, bounded, valid UTF-8, and free of whitespace and
// control characters (names are tokens in the text format; invalid UTF-8
// would be rewritten to U+FFFD wherever a name is served as JSON).
func validName(s string) bool {
	if s == "" || len(s) > maxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf {
			// Not ASCII: decode the whole name.
			return utf8.ValidString(s) && !strings.ContainsFunc(s, func(r rune) bool { return r <= ' ' || r == 0x7f })
		} else if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// validateTerms checks one term list: valid keys, sorted, unique, and
// finite non-zero coefficients (a zero coefficient would be dropped by the
// canonical form, so it is rejected as ambiguous input).
func validateTerms(kind, event string, terms []Term) error {
	for i, t := range terms {
		if !validName(t.Key) {
			return errf(0, "event %q: %s term %d has invalid key %q", event, kind, i, t.Key)
		}
		if i > 0 && terms[i-1].Key >= t.Key {
			return errf(0, "event %q: %s terms not sorted by key (%q then %q)", event, kind, terms[i-1].Key, t.Key)
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			return errf(0, "event %q: %s coefficient for %q is not finite", event, kind, t.Key)
		}
		if mat.IsZero(t.Coeff) {
			return errf(0, "event %q: %s coefficient for %q is zero (omit the term)", event, kind, t.Key)
		}
	}
	return nil
}

// Validate checks the definition against the format's semantic rules. Parse
// calls it; loaders of programmatically built definitions
// should too. All failures are *Error values.
func (p *Platform) Validate() error {
	if !validName(p.Name) {
		return errf(0, "invalid platform name %q", p.Name)
	}
	if p.Class != "cpu" && p.Class != "gpu" {
		return errf(0, "platform %q: class must be cpu or gpu, got %q", p.Name, p.Class)
	}
	if p.Counters < 1 || p.Counters > MaxCounters {
		return errf(0, "platform %q: counters must be in [1, %d], got %d", p.Name, MaxCounters, p.Counters)
	}
	if len(p.Events) == 0 {
		return errf(0, "platform %q: a catalog needs at least one event", p.Name)
	}
	if len(p.Events) > MaxEvents {
		return errf(0, "platform %q: %d events exceeds the %d limit", p.Name, len(p.Events), MaxEvents)
	}
	seen := make(map[string]bool, len(p.Events))
	for i := range p.Events {
		e := &p.Events[i]
		if !validName(e.Name) {
			return errf(0, "platform %q: invalid event name %q", p.Name, e.Name)
		}
		if seen[e.Name] {
			return errf(0, "platform %q: duplicate event %q", p.Name, e.Name)
		}
		seen[e.Name] = true
		if len(e.Desc) > maxDescLen {
			return errf(0, "event %q: description exceeds %d bytes", e.Name, maxDescLen)
		}
		if !utf8.ValidString(e.Desc) {
			return errf(0, "event %q: description is not valid UTF-8", e.Name)
		}
		if strings.IndexByte(e.Desc, '\n') >= 0 || strings.IndexByte(e.Desc, '\r') >= 0 {
			return errf(0, "event %q: description contains a line break", e.Name)
		}
		if e.Desc != "" && (e.Desc[0] == ' ' || e.Desc[len(e.Desc)-1] == ' ') {
			return errf(0, "event %q: description has leading or trailing spaces", e.Name)
		}
		if math.IsNaN(e.RelNoise) || math.IsInf(e.RelNoise, 0) || e.RelNoise < 0 {
			return errf(0, "event %q: rel noise must be finite and >= 0", e.Name)
		}
		if math.IsNaN(e.AbsNoise) || math.IsInf(e.AbsNoise, 0) || e.AbsNoise < 0 {
			return errf(0, "event %q: abs noise must be finite and >= 0", e.Name)
		}
		if err := validateTerms("respond", e.Name, e.Respond); err != nil {
			return err
		}
		if !e.Documented && len(e.Doc) > 0 {
			return errf(0, "event %q: doc terms on an undocumented event", e.Name)
		}
		if err := validateTerms("doc", e.Name, e.Doc); err != nil {
			return err
		}
	}
	conSeen := make(map[string]bool, len(p.Constraints))
	for i, c := range p.Constraints {
		if !seen[c.Event] {
			return errf(0, "platform %q: constraint for unknown event %q", p.Name, c.Event)
		}
		if conSeen[c.Event] {
			return errf(0, "platform %q: duplicate constraint for event %q", p.Name, c.Event)
		}
		conSeen[c.Event] = true
		if i > 0 && p.Constraints[i-1].Event >= c.Event {
			return errf(0, "platform %q: constraints not sorted by event (%q then %q)", p.Name, p.Constraints[i-1].Event, c.Event)
		}
		switch {
		case c.Fixed >= 0:
			if c.Fixed > MaxFixedSlot {
				return errf(0, "event %q: fixed counter %d exceeds %d", c.Event, c.Fixed, MaxFixedSlot)
			}
			if len(c.Allowed) > 0 {
				return errf(0, "event %q: a fixed-counter event cannot also list allowed counters", c.Event)
			}
		case c.Fixed == -1:
			if len(c.Allowed) == 0 {
				return errf(0, "event %q: constraint restricts nothing (no fixed counter, no allowed list)", c.Event)
			}
			for j, slot := range c.Allowed {
				if slot < 0 || slot >= p.Counters {
					return errf(0, "event %q: allowed counter %d out of range [0, %d)", c.Event, slot, p.Counters)
				}
				if j > 0 && c.Allowed[j-1] >= slot {
					return errf(0, "event %q: allowed counters not sorted ascending", c.Event)
				}
			}
		default:
			return errf(0, "event %q: fixed counter must be >= 0, or -1 for programmable", c.Event)
		}
	}
	return nil
}

// formatFloat renders a coefficient or noise sigma in the canonical form:
// the shortest decimal that round-trips exactly through ParseFloat, so the
// codec never perturbs a value.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
