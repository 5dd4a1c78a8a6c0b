package platdef

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadDir loads every *.pdef definition in a directory, in file-name order,
// rejecting two files that define the same platform name. It is the
// implementation behind the CLIs' -platform-dir flag.
func LoadDir(dir string) ([]*Platform, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("platdef: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(ent.Name(), ".pdef") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	var out []*Platform
	seen := make(map[string]string, len(names))
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("platdef: %w", err)
		}
		p, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if first, dup := seen[p.Name]; dup {
			return nil, fmt.Errorf("platdef: %s and %s both define platform %q", first, name, p.Name)
		}
		seen[p.Name] = name
		out = append(out, p)
	}
	return out, nil
}
