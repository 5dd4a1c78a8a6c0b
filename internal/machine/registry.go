package machine

import (
	"fmt"
	"strings"

	"github.com/perfmetrics/eventlens/internal/platdef"
)

// Registry resolves platform names to live platforms: the committed
// built-in platforms, extended (or overridden) by definitions loaded from
// directories — the -platform-dir flag of the CLIs and the daemon. A
// process builds one registry at start-up and passes it down. It keeps one
// live platform per definition, whose collection plan is built on first
// use (Platform.Plan), so every collection on a definition reads one
// platform and one plan, and any number of goroutines may read it.
type Registry struct {
	order   []string
	entries map[string]entry
}

// entry is one registered platform and its Ref.
type entry struct {
	platform *Platform
	ref      string
}

// NewRegistry returns a registry holding the built-in platforms in
// canonical listing order, then the definitions of each non-empty dir in
// turn (platdef.LoadDir). A definition whose name is already registered
// replaces it in place, in the same class (benchmarks pick their default
// platform by name); new names append in file order. A loaded definition
// is rejected when its terms name a stat key no simulator populates, or
// when its name is the other spelling of a registered one ("spr" beside
// "spr-sim"), which would leave one short name for two platforms. Each
// definition's digest is computed here, once: the built-ins' once per
// process. Parsing validated every definition, so none is validated again.
func NewRegistry(dirs ...string) (*Registry, error) {
	r := &Registry{entries: make(map[string]entry)}
	add := func(def *platdef.Platform, digest string) {
		if _, exists := r.entries[def.Name]; !exists {
			r.order = append(r.order, def.Name)
		}
		r.entries[def.Name] = entry{platform: newPlatform(def), ref: def.Name + "@" + digest}
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
			if old, ok := r.entries[def.Name]; ok && old.platform.Class != def.Class {
				return nil, fmt.Errorf("machine: %s redefines %s-class platform %s as %s-class", dir, old.platform.Class, def.Name, def.Class)
			}
			// Canonical reads "spr" as "spr-sim": one name, one platform.
			other, short := def.Name+"-sim", def.Name
			if s, ok := strings.CutSuffix(def.Name, "-sim"); ok {
				other, short = s, s
			}
			if r.entries[other].platform != nil {
				return nil, fmt.Errorf("machine: %s: platform %s collides with platform %s: %q would name both", dir, def.Name, other, short)
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
		if full := name + "-sim"; r.entries[full].platform != nil {
			return full, nil
		}
	}
	short := make([]string, 0, len(r.order))
	for _, n := range r.order {
		short = append(short, strings.TrimSuffix(n, "-sim"))
	}
	return "", fmt.Errorf("machine: unknown platform %q (have %s)", name, strings.Join(short, ", "))
}

// Platform returns the live platform of a registered definition (exact or
// aliased name): one per definition, shared by every caller, so every
// collection on it reads one collection plan. It must be treated as
// read-only; WithInjector copies it.
func (r *Registry) Platform(name string) (*Platform, error) {
	full, err := r.Canonical(name)
	if err != nil {
		return nil, err
	}
	return r.entries[full].platform, nil
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

// New is Platform. It exists only for cmd/loadgen until the next benchmark
// change; everything else calls Platform.
func (r *Registry) New(name string) (*Platform, error) {
	return r.Platform(name)
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
