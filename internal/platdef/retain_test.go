package platdef

import (
	"reflect"
	"runtime"
	"testing"
)

// footprint is the least a definition can occupy: its event and term
// structs, and one copy of each distinct string it holds.
func footprint(p *Platform) int {
	eventSize := int(reflect.TypeOf(Event{}).Size())
	termSize := int(reflect.TypeOf(Term{}).Size())
	strs := map[string]bool{p.Name: true, p.Class: true}
	n := len(p.Events) * eventSize
	for _, c := range p.Constraints {
		strs[c.Event] = true
	}
	for _, e := range p.Events {
		strs[e.Name], strs[e.Desc] = true, true
		for _, ts := range [][]Term{e.Respond, e.Doc} {
			n += len(ts) * termSize
			for _, t := range ts {
				strs[t.Key] = true
			}
		}
	}
	for s := range strs {
		n += len(s)
	}
	return n
}

// TestParseRetainsNoText bounds the heap a parsed built-in definition keeps
// alive once its file's bytes are dropped: at most a quarter over its
// footprint. A definition whose strings point into the file's text keeps
// the whole text alive, and append slack in Events adds more: mi250x-sim's
// 141 KiB file then kept 322 KiB per parse against a 183 KiB footprint.
func TestParseRetainsNoText(t *testing.T) {
	const copies = 8
	for _, name := range BuiltinNames() {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		defs := make([]*Platform, copies)
		for i := range defs {
			data, err := BuiltinBytes(name)
			if err != nil {
				t.Fatal(err)
			}
			if defs[i], err = Parse(data); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := float64(after.HeapAlloc-before.HeapAlloc) / copies
		least := footprint(defs[0])
		runtime.KeepAlive(defs)
		t.Logf("%s: retains %.0f B per definition, footprint %d B (%.2fx)", name, retained, least, retained/float64(least))
		if retained > 1.25*float64(least)+1024 {
			t.Errorf("%s: a parsed definition retains %.0f B, more than 1.25x its %d B footprint", name, retained, least)
		}
	}
}
