package platdef

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// The text format (DESIGN.md §15). Line-oriented; blank lines and full-line
// '#' comments are ignored; fields are whitespace-separated tokens except
// the desc line, which runs to end of line. The first significant line must
// be the version header. Platform-level directives come before the first
// event block; each `event` line opens a block whose desc/noise/respond/doc
// lines may appear in any order, each at most once.
//
//	platdef v1
//
//	platform spr-sim
//	class cpu
//	counters 8
//	fixed INST_RETIRED:ANY 0
//	allowed SOME_EVENT 0,1,2
//
//	event FP_ARITH_INST_RETIRED:SCALAR_DOUBLE
//	desc retired FP arithmetic instructions (FMA counts twice)
//	noise 0 0
//	respond cpu.fp.dp.scalar=1 cpu.fp.dp.scalar.fma=2
//	doc cpu.fp.dp.scalar=1 cpu.fp.dp.scalar.fma=1
//
// A missing doc line means the event is undocumented; a bare `doc` line
// documents an event that counts nothing the benchmarks exercise. The
// canonical form omits the noise line when both sigmas are zero and the
// respond line when the event responds to nothing.

// header is the required first significant line of every definition file.
const header = "platdef v1"

// Parse decodes and validates one platform definition in the text format.
// Failures are *Error values carrying the offending 1-based line number.
// The definition shares no memory with data: every string it holds is a
// copy, one per distinct value, so a registry that keeps definitions does
// not keep their files' text.
func Parse(data []byte) (*Platform, error) {
	return parse(string(data), true)
}

// parse is Parse over text. With detach set, every string the definition
// keeps is a copy, one per distinct value; without it, every string is a
// substring of text, which then lives as long as the definition does — the
// built-ins' text is the binary's own.
func parse(text string, detach bool) (*Platform, error) {
	// A canonical file opens every event block with "\nevent ", so this
	// sizes Events exactly for one; any other is copied to its length below.
	events := strings.Count(text, "\nevent ")
	p := &Platform{Events: make([]Event, 0, events)}
	var (
		cur        *Event // event block being assembled, nil in the header
		sawHeader  bool
		sawName    bool
		sawClass   bool
		sawCount   bool
		blockSeen  uint8 // directives seen in the current block, by blockBit
		constraint = map[string]int{}
		strs       map[string]string
		fieldBuf   [16]string // a line's fields; only long lines outgrow it
	)
	if detach {
		strs = make(map[string]string, events)
	}
	// own returns s as the definition keeps it: when detaching, a copy of
	// s, the same copy for every equal s.
	own := func(s string) string {
		if !detach {
			return s
		}
		c, ok := strs[s]
		if !ok {
			c = strings.Clone(s)
			strs[c] = c
		}
		return c
	}
	// Lines are cut off the text one at a time, numbered as strings.Split
	// would number them: a trailing newline ends an empty last line.
	lines := 0
	for rest, more := text, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		lines++
		ln := lines
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawHeader {
			if line != header {
				return nil, errf(ln, "first line must be %q, got %q", header, line)
			}
			sawHeader = true
			continue
		}
		// A desc line is its directive and free text, so only its first
		// field is split off.
		fields := fieldBuf[:0]
		if desc, ok := strings.CutPrefix(line, "desc"); ok && (desc == "" || desc[0] == ' ' || desc[0] == '\t') {
			fields = append(fields, "desc")
		} else {
			fields = appendFields(fields, line)
		}
		directive := fields[0]
		if cur == nil {
			switch directive {
			case "platform":
				if sawName {
					return nil, errf(ln, "duplicate platform directive")
				}
				if len(fields) != 2 {
					return nil, errf(ln, "platform takes exactly one name")
				}
				p.Name = own(fields[1])
				sawName = true
				continue
			case "class":
				if sawClass {
					return nil, errf(ln, "duplicate class directive")
				}
				if len(fields) != 2 {
					return nil, errf(ln, "class takes exactly one value")
				}
				p.Class = own(fields[1])
				sawClass = true
				continue
			case "counters":
				if sawCount {
					return nil, errf(ln, "duplicate counters directive")
				}
				if len(fields) != 2 {
					return nil, errf(ln, "counters takes exactly one value")
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, errf(ln, "bad counter count %q", fields[1])
				}
				p.Counters = n
				sawCount = true
				continue
			case "fixed":
				if len(fields) != 3 {
					return nil, errf(ln, "fixed takes an event name and a counter index")
				}
				slot, err := strconv.Atoi(fields[2])
				if err != nil || slot < 0 {
					return nil, errf(ln, "bad fixed counter index %q", fields[2])
				}
				if prev, dup := constraint[fields[1]]; dup {
					return nil, errf(ln, "duplicate constraint for event %q (first on line %d)", fields[1], prev)
				}
				constraint[fields[1]] = ln
				p.Constraints = append(p.Constraints, Constraint{Event: own(fields[1]), Fixed: slot})
				continue
			case "allowed":
				if len(fields) < 3 {
					return nil, errf(ln, "allowed takes an event name and a comma-separated counter list")
				}
				// Tolerate whitespace around the commas: "0, 2" and "0,2"
				// are the same list.
				var slots []int
				for _, s := range strings.Split(strings.Join(fields[2:], ""), ",") {
					slot, err := strconv.Atoi(s)
					if err != nil {
						return nil, errf(ln, "bad allowed counter %q", s)
					}
					slots = append(slots, slot)
				}
				slices.Sort(slots)
				if prev, dup := constraint[fields[1]]; dup {
					return nil, errf(ln, "duplicate constraint for event %q (first on line %d)", fields[1], prev)
				}
				constraint[fields[1]] = ln
				p.Constraints = append(p.Constraints, Constraint{Event: own(fields[1]), Fixed: -1, Allowed: slots})
				continue
			case "event":
				// Falls through to the shared event-open path below.
			default:
				return nil, errf(ln, "unknown directive %q in platform header", directive)
			}
		}
		if directive == "event" {
			if len(fields) != 2 {
				return nil, errf(ln, "event takes exactly one name")
			}
			if len(p.Events) >= MaxEvents {
				return nil, errf(ln, "more than %d events", MaxEvents)
			}
			// Names are unique (Validate), so interning one saves nothing.
			name := fields[1]
			if detach {
				name = strings.Clone(name)
			}
			p.Events = append(p.Events, Event{Name: name})
			cur = &p.Events[len(p.Events)-1]
			blockSeen = 0
			continue
		}
		bit := blockBit(directive)
		if bit == 0 {
			return nil, errf(ln, "unknown directive %q in event %q", directive, cur.Name)
		}
		if blockSeen&bit != 0 {
			return nil, errf(ln, "duplicate %s in event %q", directive, cur.Name)
		}
		blockSeen |= bit
		switch directive {
		case "desc":
			cur.Desc = own(strings.TrimSpace(strings.TrimPrefix(line, "desc")))
		case "noise":
			if len(fields) != 3 {
				return nil, errf(ln, "noise takes a relative and an absolute sigma")
			}
			rel, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, errf(ln, "bad relative noise %q", fields[1])
			}
			abs, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, errf(ln, "bad absolute noise %q", fields[2])
			}
			cur.RelNoise, cur.AbsNoise = rel, abs
		case "respond":
			terms, err := parseTerms(ln, fields[1:], own)
			if err != nil {
				return nil, err
			}
			cur.Respond = terms
		case "doc":
			terms, err := parseTerms(ln, fields[1:], own)
			if err != nil {
				return nil, err
			}
			cur.Documented = true
			cur.Doc = terms
		}
	}
	if !sawHeader {
		return nil, errf(lines, "missing %q header", header)
	}
	// Drop any append slack: the definition may live as long as the
	// process.
	if cap(p.Events) != len(p.Events) {
		p.Events = append(make([]Event, 0, len(p.Events)), p.Events...)
	}
	// Constraint encounter order is not semantic; canonical order is by
	// event name, which Validate requires.
	slices.SortFunc(p.Constraints, func(a, b Constraint) int { return strings.Compare(a.Event, b.Event) })
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// blockBit is the bit an event block's directive takes in Parse's
// seen-directives mask, or 0 for a directive no block takes.
func blockBit(directive string) uint8 {
	switch directive {
	case "desc":
		return 1
	case "noise":
		return 2
	case "respond":
		return 4
	case "doc":
		return 8
	}
	return 0
}

// byteClass sorts bytes for appendFields: 0 for a byte of a field, 1 for
// the ASCII whitespace strings.Fields splits at, 2 for a non-ASCII byte.
var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = 1
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = 2
	}
	return c
}()

// appendFields appends line's whitespace-separated fields to dst, split
// exactly as strings.Fields splits them. An ASCII line — every line of a
// committed file — splits in one pass without allocating while dst has
// room; any other goes through strings.Fields.
func appendFields(dst []string, line string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(line); i++ {
		switch byteClass[line[i]] {
		case 0:
			if start < 0 {
				start = i
			}
		case 1:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			return append(dst[:n], strings.Fields(line)...)
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseTerms decodes key=value tokens into a key-sorted term list,
// rejecting duplicate keys. own gives each key as the definition keeps it.
func parseTerms(ln int, tokens []string, own func(string) string) ([]Term, error) {
	if len(tokens) == 0 {
		return nil, nil
	}
	terms := make([]Term, 0, len(tokens))
	for _, tok := range tokens {
		key, val, ok := strings.Cut(tok, "=")
		if !ok || key == "" {
			return nil, errf(ln, "bad term %q (want key=value)", tok)
		}
		coeff, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, errf(ln, "bad coefficient %q for key %q", val, key)
		}
		terms = append(terms, Term{Key: own(key), Coeff: coeff})
	}
	slices.SortFunc(terms, func(a, b Term) int { return strings.Compare(a.Key, b.Key) })
	for i := 1; i < len(terms); i++ {
		if terms[i-1].Key == terms[i].Key {
			return nil, errf(ln, "duplicate term key %q", terms[i].Key)
		}
	}
	return terms, nil
}

// Canonical renders the definition in the canonical text form: the unique
// byte representation of its value. Parse(Canonical(p)) reproduces p
// exactly, and Canonical(Parse(b)) is a fixpoint for any accepted b. The
// receiver must be valid (Validate passes); Canonical does not re-check.
func (p *Platform) Canonical() []byte {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n\n")
	b.WriteString("platform ")
	b.WriteString(p.Name)
	b.WriteByte('\n')
	b.WriteString("class ")
	b.WriteString(p.Class)
	b.WriteByte('\n')
	b.WriteString("counters ")
	b.WriteString(strconv.Itoa(p.Counters))
	b.WriteByte('\n')
	for _, c := range p.Constraints {
		if c.Fixed >= 0 {
			b.WriteString("fixed ")
			b.WriteString(c.Event)
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(c.Fixed))
		} else {
			b.WriteString("allowed ")
			b.WriteString(c.Event)
			b.WriteByte(' ')
			for i, slot := range c.Allowed {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(slot))
			}
		}
		b.WriteByte('\n')
	}
	for i := range p.Events {
		e := &p.Events[i]
		b.WriteString("\nevent ")
		b.WriteString(e.Name)
		b.WriteByte('\n')
		if e.Desc != "" {
			b.WriteString("desc ")
			b.WriteString(e.Desc)
			b.WriteByte('\n')
		}
		if !mat.IsZero(e.RelNoise) || !mat.IsZero(e.AbsNoise) {
			b.WriteString("noise ")
			b.WriteString(formatFloat(e.RelNoise))
			b.WriteByte(' ')
			b.WriteString(formatFloat(e.AbsNoise))
			b.WriteByte('\n')
		}
		if len(e.Respond) > 0 {
			b.WriteString("respond")
			writeTerms(&b, e.Respond)
		}
		if e.Documented {
			b.WriteString("doc")
			writeTerms(&b, e.Doc)
		}
	}
	return []byte(b.String())
}

func writeTerms(b *strings.Builder, terms []Term) {
	for _, t := range terms {
		b.WriteByte(' ')
		b.WriteString(t.Key)
		b.WriteByte('=')
		b.WriteString(formatFloat(t.Coeff))
	}
	b.WriteByte('\n')
}
