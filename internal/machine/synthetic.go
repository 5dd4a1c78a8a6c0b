package machine

import (
	"fmt"
	"sort"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// SyntheticCatalog generates a platform with an arbitrarily large raw-event
// catalog for scalability testing — modern HPC systems expose events on the
// order of hundreds of thousands (the paper's motivation), and the analysis
// pipeline must stay tractable at that scale.
//
// The catalog embeds the same architecturally meaningful core as the SPR
// platform (events the analysis should find) inside a sea of generated
// events whose responses and noise derive from their name hash:
//
//   - ~1/3 respond to nothing (all-zero, discarded as irrelevant),
//   - ~1/3 respond to generic activity with noise above any sensible tau,
//   - ~1/3 are noisy linear combinations of real subsystem stats.
//
// The signal events occupy a deterministic but arbitrary position in the
// catalog order, so scale tests also exercise ordering robustness. The
// result is a cpu-class platform with 8 unconstrained counters, validated
// by FromDef like a committed definition.
func SyntheticCatalog(nFiller int, seed uint64) (*Platform, error) {
	base, err := BuiltinPlatform("spr-sim")
	if err != nil {
		return nil, err
	}
	signal := base.Events
	var events []EventDef
	drivers := [][]string{
		nil, // all-zero family
		{KeyInstr, KeyCycles},
		{KeyL1Miss, KeyL2Miss},
		{KeyBrMisp, KeyCycles},
		{KeyLoads, KeyStores},
		{KeyMemAcc},
	}
	for i := 0; i < nFiller; i++ {
		name := fmt.Sprintf("SYN_%04x_%06d", (seed^uint64(i)*0x9e3779b9)&0xffff, i)
		h := nameHash(name)
		fam := drivers[h%uint64(len(drivers))]
		def := EventDef{Name: name, Desc: "synthetic scale-test event"}
		if len(fam) > 0 {
			for di, d := range fam {
				def.Respond = append(def.Respond, platdef.Term{Key: d, Coeff: 0.01 + float64((h>>(8*uint(di)))&0xff)/64})
			}
			// Terms are summed in list order; keep it the canonical key order.
			sort.Slice(def.Respond, func(a, b int) bool { return def.Respond[a].Key < def.Respond[b].Key })
			def.RelNoise = spreadNoise(h, 1e-8, 1e1)
		}
		events = append(events, def)
		// Interleave the real catalog one event at a time so signal events
		// are scattered through the order.
		if stride := nFiller/len(signal) + 1; i%stride == 0 {
			if idx := i / stride; idx < len(signal) {
				events = append(events, signal[idx])
			}
		}
	}
	// Append any real events that did not get interleaved.
	present := make(map[string]bool, len(events))
	for _, e := range events {
		present[e.Name] = true
	}
	for _, e := range signal {
		if !present[e.Name] {
			events = append(events, e)
		}
	}
	return FromDef(&platdef.Platform{
		Name:     fmt.Sprintf("synthetic-%d", nFiller),
		Class:    "cpu",
		Counters: 8,
		Events:   events,
	})
}
