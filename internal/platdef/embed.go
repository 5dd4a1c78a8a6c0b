package platdef

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"sync"
)

//go:embed platforms/*.pdef
var builtinFS embed.FS

// builtinOrder is the canonical listing order of the committed platforms:
// the paper's three seed platforms first, then the expansion set.
var builtinOrder = []string{
	"spr-sim",
	"mi250x-sim",
	"zen4-sim",
	"icl-sim",
	"graviton-sim",
	"h100-sim",
	"spr-smtoff-sim",
}

// BuiltinNames returns the names of the committed built-in platforms in
// canonical listing order.
func BuiltinNames() []string {
	return append([]string(nil), builtinOrder...)
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

// builtins parses every committed platform once per process.
var builtins = sync.OnceValues(func() (map[string]builtin, error) {
	out := make(map[string]builtin, len(builtinOrder))
	for _, name := range builtinOrder {
		data, err := builtinFS.ReadFile("platforms/" + name + ".pdef")
		if err != nil {
			return nil, fmt.Errorf("platdef: %w", err)
		}
		def, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("builtin %s: %w", name, err)
		}
		if def.Name != name {
			return nil, fmt.Errorf("platdef: builtin file %s.pdef defines platform %q", name, def.Name)
		}
		out[name] = builtin{def: def, digest: Digest(data)}
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

// BuiltinBytes returns the committed canonical bytes of a built-in
// platform's definition file — what the canonical-drift tests and
// cmd/verify compare regenerated definitions against.
func BuiltinBytes(name string) ([]byte, error) {
	data, err := builtinFS.ReadFile("platforms/" + name + ".pdef")
	if err != nil {
		return nil, fmt.Errorf("platdef: %w", err)
	}
	return data, nil
}
