package machine

import (
	"fmt"
	"strings"
	"sync"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// Registry resolves platform names to definitions: the committed built-in
// platforms, extended (or overridden) by definitions loaded from
// directories — the -platform-dir flag of the CLIs and the daemon. A
// process builds one registry at start-up and passes it down; it is
// immutable but for each definition's collection plan, built once on
// first use (Plan), so any number of goroutines may read it.
type Registry struct {
	order   []string
	entries map[string]entry
}

// entry is one registered definition, its Ref and its collection plan,
// built on first use.
type entry struct {
	def  *platdef.Platform
	ref  string
	plan func() *Plan
}

// NewRegistry returns a registry holding the built-in platforms in
// canonical listing order, then the definitions of each non-empty dir in
// turn (platdef.LoadDir). A definition whose name is already registered
// replaces it in place, in the same class (benchmarks pick their default
// platform by name); new names append in file order. A loaded definition
// whose terms name a stat key no simulator populates is rejected here, as
// FromDef would reject it at every collection. Each definition's digest is
// computed here, once: the built-ins' once per process.
func NewRegistry(dirs ...string) (*Registry, error) {
	r := &Registry{entries: make(map[string]entry)}
	add := func(def *platdef.Platform, digest string) {
		if _, exists := r.entries[def.Name]; !exists {
			r.order = append(r.order, def.Name)
		}
		r.entries[def.Name] = entry{def: def, ref: def.Name + "@" + digest, plan: sync.OnceValue(func() *Plan {
			return NewPlan(index(def))
		})}
	}
	for _, name := range platdef.BuiltinNames() {
		def, digest, err := platdef.Builtin(name)
		if err != nil {
			return nil, err
		}
		add(def, digest)
	}
	for _, dir := range dirs {
		if dir == "" {
			continue
		}
		defs, err := platdef.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, def := range defs {
			if old, ok := r.entries[def.Name]; ok && old.def.Class != def.Class {
				return nil, fmt.Errorf("machine: %s redefines %s-class platform %s as %s-class", dir, old.def.Class, def.Name, def.Class)
			}
			if err := checkKeys(def); err != nil {
				return nil, fmt.Errorf("machine: %s: %v", dir, err)
			}
			add(def, platdef.Digest(def.Canonical()))
		}
	}
	return r, nil
}

// Names returns every registered platform name in listing order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.order...)
}

// Canonical resolves a platform name or its short alias (the name minus a
// "-sim" suffix: "spr" for "spr-sim") to the registered platform name.
func (r *Registry) Canonical(name string) (string, error) {
	if _, ok := r.entries[name]; ok {
		return name, nil
	}
	if !strings.HasSuffix(name, "-sim") {
		if full := name + "-sim"; r.entries[full].def != nil {
			return full, nil
		}
	}
	short := make([]string, 0, len(r.order))
	for _, n := range r.order {
		short = append(short, strings.TrimSuffix(n, "-sim"))
	}
	return "", fmt.Errorf("machine: unknown platform %q (have %s)", name, strings.Join(short, ", "))
}

// Def returns the definition of a registered platform (exact or aliased
// name). The returned value is shared and must be treated as read-only.
func (r *Registry) Def(name string) (*platdef.Platform, error) {
	full, err := r.Canonical(name)
	if err != nil {
		return nil, err
	}
	return r.entries[full].def, nil
}

// Ref names a registered platform's definition in store keys: its
// registered name and content digest (platdef.Digest), "spr-sim@<hex>".
// Every key that reaches the result store carries the Ref of each platform
// its request reads, so a definition that a platform dir or a new build
// changes turns old entries into misses, never wrong hits.
func (r *Registry) Ref(name string) (string, error) {
	full, err := r.Canonical(name)
	if err != nil {
		return "", err
	}
	return r.entries[full].ref, nil
}

// Plan returns the collection plan of a registered platform's definition
// (exact or aliased name): built on the first call and shared, read-only,
// by every later one, so the registry's collections schedule each
// definition once.
func (r *Registry) Plan(name string) (*Plan, error) {
	full, err := r.Canonical(name)
	if err != nil {
		return nil, err
	}
	return r.entries[full].plan(), nil
}

// New builds a fresh live platform from a registered definition.
func (r *Registry) New(name string) (*Platform, error) {
	def, err := r.Def(name)
	if err != nil {
		return nil, err
	}
	return FromDef(def)
}

// BuiltinPlatform builds a live platform from a committed built-in
// definition by exact name ("spr-sim") — the loader behind
// suite.Benchmark.Collect.
func BuiltinPlatform(name string) (*Platform, error) {
	def, _, err := platdef.Builtin(name)
	if err != nil {
		return nil, err
	}
	return FromDef(def)
}
