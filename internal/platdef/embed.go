package platdef

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"sync"
)

// The committed platforms' definition files, each embedded as a string:
// the text lives in the binary's read-only data, so a built-in parsed in
// place (parse without detach) keeps its strings there and not on the heap.
var (
	//go:embed platforms/spr-sim.pdef
	sprSim string
	//go:embed platforms/mi250x-sim.pdef
	mi250xSim string
	//go:embed platforms/zen4-sim.pdef
	zen4Sim string
	//go:embed platforms/icl-sim.pdef
	iclSim string
	//go:embed platforms/graviton-sim.pdef
	gravitonSim string
	//go:embed platforms/h100-sim.pdef
	h100Sim string
	//go:embed platforms/spr-smtoff-sim.pdef
	sprSmtoffSim string
)

// builtinFiles lists the committed platforms in canonical listing order —
// the paper's three seed platforms first, then the expansion set — each
// with its file's text.
var builtinFiles = []struct{ name, text string }{
	{"spr-sim", sprSim},
	{"mi250x-sim", mi250xSim},
	{"zen4-sim", zen4Sim},
	{"icl-sim", iclSim},
	{"graviton-sim", gravitonSim},
	{"h100-sim", h100Sim},
	{"spr-smtoff-sim", sprSmtoffSim},
}

// BuiltinNames returns the names of the committed built-in platforms in
// canonical listing order.
func BuiltinNames() []string {
	out := make([]string, len(builtinFiles))
	for i, f := range builtinFiles {
		out[i] = f.name
	}
	return out
}

// builtinText returns the embedded text of a built-in platform's file.
func builtinText(name string) (string, bool) {
	for _, f := range builtinFiles {
		if f.name == name {
			return f.text, true
		}
	}
	return "", false
}

// Digest is the content digest of a definition's canonical bytes: their
// hex SHA-256. Canonical bytes are equal iff definitions are, so equal
// digests mean equal definitions.
func Digest(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// builtin is one committed platform: its parsed definition and the digest
// of its file, which is canonical (cmd/verify and the canonical-drift tests
// prove it), so hashing the file is hashing the canonical bytes.
type builtin struct {
	def    *Platform
	digest string
}

// builtins parses every committed platform once per process, in place: a
// built-in's strings are substrings of its embedded file, which the binary
// holds for the life of the process anyway.
var builtins = sync.OnceValues(func() (map[string]builtin, error) {
	out := make(map[string]builtin, len(builtinFiles))
	for _, f := range builtinFiles {
		def, err := parse(f.text, false)
		if err != nil {
			return nil, fmt.Errorf("builtin %s: %w", f.name, err)
		}
		if def.Name != f.name {
			return nil, fmt.Errorf("platdef: builtin file %s.pdef defines platform %q", f.name, def.Name)
		}
		out[f.name] = builtin{def: def, digest: Digest([]byte(f.text))}
	}
	return out, nil
})

// Builtin returns the committed definition of a built-in platform by exact
// name, and its Digest. The returned value is shared and must be treated as
// read-only.
func Builtin(name string) (*Platform, string, error) {
	all, err := builtins()
	if err != nil {
		return nil, "", err
	}
	b, ok := all[name]
	if !ok {
		return nil, "", fmt.Errorf("platdef: no builtin platform %q", name)
	}
	return b.def, b.digest, nil
}

// BuiltinBytes returns a copy of the committed canonical bytes of a
// built-in platform's definition file — what the canonical-drift tests and
// cmd/verify compare regenerated definitions against.
func BuiltinBytes(name string) ([]byte, error) {
	text, ok := builtinText(name)
	if !ok {
		return nil, fmt.Errorf("platdef: no builtin platform %q", name)
	}
	return []byte(text), nil
}
