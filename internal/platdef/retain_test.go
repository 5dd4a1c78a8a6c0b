package platdef

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// structBytes is the size of a definition's event and term structs.
func structBytes(p *Platform) int {
	eventSize := int(reflect.TypeOf(Event{}).Size())
	termSize := int(reflect.TypeOf(Term{}).Size())
	n := len(p.Events) * eventSize
	for _, e := range p.Events {
		n += (len(e.Respond) + len(e.Doc)) * termSize
	}
	return n
}

// strs returns every string a definition holds, empty ones included.
func strs(p *Platform) []string {
	out := []string{p.Name, p.Class}
	for _, c := range p.Constraints {
		out = append(out, c.Event)
	}
	for _, e := range p.Events {
		out = append(out, e.Name, e.Desc)
		for _, ts := range [][]Term{e.Respond, e.Doc} {
			for _, t := range ts {
				out = append(out, t.Key)
			}
		}
	}
	return out
}

// footprint is the least a definition can occupy: its event and term
// structs, and one copy of each distinct string it holds.
func footprint(p *Platform) int {
	n := structBytes(p)
	distinct := map[string]bool{}
	for _, s := range strs(p) {
		distinct[s] = true
	}
	for s := range distinct {
		n += len(s)
	}
	return n
}

// retained parses copies definitions with parseOne and returns the heap
// they keep alive, per definition, and the last one parsed.
func retained(t *testing.T, copies int, parseOne func() (*Platform, error)) (float64, *Platform) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defs := make([]*Platform, copies)
	for i := range defs {
		var err error
		if defs[i], err = parseOne(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(defs)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(copies), defs[copies-1]
}

// TestParseRetainsNoText bounds the heap a parsed built-in definition keeps
// alive once its file's bytes are dropped: at most a quarter over its
// footprint. A definition whose strings point into the file's text keeps
// the whole text alive, and append slack in Events adds more: mi250x-sim's
// 141 KiB file then kept 322 KiB per parse against a 183 KiB footprint.
func TestParseRetainsNoText(t *testing.T) {
	for _, name := range BuiltinNames() {
		data, err := BuiltinBytes(name)
		if err != nil {
			t.Fatal(err)
		}
		kept, def := retained(t, 8, func() (*Platform, error) { return Parse(data) })
		least := footprint(def)
		t.Logf("%s: retains %.0f B per definition, footprint %d B (%.2fx)", name, kept, least, kept/float64(least))
		if kept > 1.25*float64(least)+1024 {
			t.Errorf("%s: a parsed definition retains %.0f B, more than 1.25x its %d B footprint", name, kept, least)
		}
	}
}

// TestBuiltinsParseInPlace: a built-in's strings are substrings of its
// embedded file, which the binary holds anyway, so a built-in keeps on the
// heap little beyond its event and term structs — at most a quarter over
// them, counting no string bytes. A clone of any string fails the first
// check; a parse that kept a heap copy of the text would keep mi250x-sim's
// 141 KiB file beside its 144 KiB of structs and fail the second.
func TestBuiltinsParseInPlace(t *testing.T) {
	for _, name := range BuiltinNames() {
		text, _ := builtinText(name)
		lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		hi := lo + uintptr(len(text))
		def, _, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strs(def) {
			if s == "" {
				continue
			}
			if at := uintptr(unsafe.Pointer(unsafe.StringData(s))); at < lo || at+uintptr(len(s)) > hi {
				t.Fatalf("%s: %q is not a substring of the embedded file", name, s)
			}
		}
		kept, def := retained(t, 8, func() (*Platform, error) { return parse(text, false) })
		least := structBytes(def)
		t.Logf("%s: retains %.0f B per definition, structs %d B (%.2fx)", name, kept, least, kept/float64(least))
		if kept > 1.25*float64(least)+1024 {
			t.Errorf("%s: a built-in parsed in place retains %.0f B, more than 1.25x its %d B of structs", name, kept, least)
		}
	}
}
