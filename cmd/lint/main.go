// Command lint runs the repository's own static analyzers — the
// determinism and numeric-safety gate described in DESIGN.md §10 — over the
// module, without any dependency outside the standard library.
//
// Usage:
//
//	lint ./...                     (whole module — what CI runs)
//	lint internal/core cmd/serve   (specific package directories)
//	lint -run maporder,floateq ./...
//	lint -tests=false ./...        (skip _test.go coverage)
//	lint -json ./...               (machine-readable findings for CI)
//	lint -list                     (describe the analyzer set)
//
// Findings print as `file:line: analyzer: message` with paths relative to
// the module root, and any finding makes the command exit 1. With -json the
// same findings are emitted as a JSON document for CI annotation. Vetted
// exceptions live in lint.allow at the module root (see TESTING.md); every
// entry must be position-exact and carry a reason, and stale entries are
// themselves errors, so the file cannot rot.
//
// Packages are typechecked once into a process-shared cache and the
// (package, analyzer) passes, plus one pass per module analyzer over the
// whole module, then fan out through internal/par — the same deterministic
// pool the gate itself enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/lint"
)

func main() {
	cli.Main("lint", run)
}

// jsonFinding is the machine-readable diagnostic shape emitted by -json.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonStale is a stale allowlist entry in the -json document.
type jsonStale struct {
	AllowFile  string `json:"allow_file"`
	SourceLine int    `json:"source_line"`
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
}

// jsonDoc is the -json output document.
type jsonDoc struct {
	Findings []jsonFinding `json:"findings"`
	Stale    []jsonStale   `json:"stale"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowFlag := fs.String("allow", "", "allowlist file (default: lint.allow at the module root, if present; 'none' disables)")
	runFlag := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	tests := fs.Bool("tests", true, "also lint _test.go files with the test-aware analyzers")
	jsonOut := fs.Bool("json", false, "emit findings as JSON (for CI annotation)")
	workers := fs.Int("workers", 0, "analyzer worker pool size (0 = GOMAXPROCS)")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if *workers < 0 {
		return cli.Usagef("-workers must be >= 0 (0 means GOMAXPROCS), got %d", *workers)
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			mode := ""
			if a.TestFiles {
				mode = " [tests]"
			}
			fmt.Fprintf(stdout, "%-12s %s%s\n", a.Name, a.Doc, mode)
		}
		return nil
	}
	if *runFlag != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*runFlag, ","))
		if err != nil {
			return cli.Usagef("-run: %v", err)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := lint.FindRoot(cwd)
	if err != nil {
		return err
	}
	loader, err := lint.SharedLoader(root)
	if err != nil {
		return err
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := loader.LoadAll()
	if err != nil {
		return err
	}
	var pkgs []*lint.Package
	for _, pattern := range patterns {
		switch pattern {
		case "./...", "...":
			pkgs = append(pkgs, all...)
		default:
			pkg, err := loader.LoadDir(pattern)
			if err != nil {
				return err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	// Module analyzers read references from the whole module plus any
	// fixture package named here, whichever packages the run reports on; a
	// package listed twice adds nothing.
	program := append(slices.Clip(all), pkgs...)
	if *tests {
		base := pkgs
		for _, pkg := range base {
			testPkgs, err := loader.LoadDirTests(pkg.Dir)
			if err != nil {
				return err
			}
			pkgs = append(pkgs, testPkgs...)
		}
	}

	diags := lint.RunWorkers(pkgs, program, analyzers, *workers)

	rel := func(file string) string {
		r, err := filepath.Rel(root, file)
		if err != nil {
			return file
		}
		return filepath.ToSlash(r)
	}

	allowPath := *allowFlag
	switch allowPath {
	case "":
		p := filepath.Join(root, "lint.allow")
		if _, err := os.Stat(p); err == nil {
			allowPath = p
		}
	case "none":
		allowPath = ""
	}
	var stale []lint.AllowEntry
	allowName := ""
	if allowPath != "" {
		allow, err := lint.ParseAllowFile(allowPath)
		if err != nil {
			return err
		}
		known := make(map[string]bool)
		for _, a := range lint.All() {
			known[a.Name] = true
		}
		for _, e := range allow.Entries {
			if !known[e.Analyzer] {
				return fmt.Errorf("%s:%d: unknown analyzer %q in allowlist entry", rel(allowPath), e.SourceLine, e.Analyzer)
			}
		}
		allowName = rel(allowPath)
		diags, stale = allow.Filter(diags, rel)
	}

	if *jsonOut {
		doc := jsonDoc{Findings: []jsonFinding{}, Stale: []jsonStale{}}
		for _, d := range diags {
			doc.Findings = append(doc.Findings, jsonFinding{
				File: rel(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		for _, e := range stale {
			doc.Stale = append(doc.Stale, jsonStale{
				AllowFile: allowName, SourceLine: e.SourceLine,
				Analyzer: e.Analyzer, File: e.File, Line: e.Line,
			})
		}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
		}
		for _, e := range stale {
			fmt.Fprintf(stdout, "%s:%d: stale allowlist entry %s %s:%d matches no finding; delete it\n",
				allowName, e.SourceLine, e.Analyzer, e.File, e.Line)
		}
	}
	if n := len(diags) + len(stale); n > 0 {
		return fmt.Errorf("%d finding(s)", n)
	}
	return nil
}
