// Command avail lists the raw events of a simulated platform — the analog
// of papi_avail / papi_native_avail for this repository's machines.
//
// Usage:
//
//	avail -platform spr                  (all events)
//	avail -platform mi250x -grep VALU    (filtered)
//	avail -platform zen4 -counts         (catalog statistics only)
package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/machine"
)

func main() {
	cli.Main("avail", run)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("avail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platformName := fs.String("platform", "spr", "platform name or its -sim shorthand (see -list)")
	platformDir := fs.String("platform-dir", "", "load extra platform definitions (*.pdef) from this directory")
	list := fs.Bool("list", false, "list the registered platforms and exit")
	grep := fs.String("grep", "", "only list events whose name contains this substring")
	counts := fs.Bool("counts", false, "print catalog statistics only")
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}

	reg, err := machine.NewRegistry(*platformDir)
	if err != nil {
		return err
	}
	if *list {
		for _, name := range reg.Names() {
			def, err := reg.Def(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-20s %-4s %6d events  %3d counters\n",
				name, def.Class, len(def.Events), def.Counters)
		}
		return nil
	}
	p, err := reg.New(*platformName)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	names := p.Catalog.SortedNames()
	if *counts {
		noisy, exact := 0, 0
		for _, name := range names {
			def, _ := p.Catalog.Lookup(name)
			if def.RelNoise > 0 || def.AbsNoise > 0 {
				noisy++
			} else {
				exact++
			}
		}
		fmt.Fprintf(stdout, "%s: %d events (%d deterministic, %d noisy), %d programmable counters, %d counter constraints\n",
			p.Name, len(names), exact, noisy, p.Counters, len(p.Constraints))
		return nil
	}
	shown := 0
	for _, name := range names {
		if *grep != "" && !strings.Contains(name, *grep) {
			continue
		}
		def, _ := p.Catalog.Lookup(name)
		noise := "deterministic"
		if def.RelNoise > 0 {
			noise = fmt.Sprintf("noise %.1e", def.RelNoise)
		}
		constraint := ""
		if c, ok := p.Constraints[name]; ok && c.Fixed >= 0 {
			constraint = fmt.Sprintf("  [fixed counter %d]", c.Fixed)
		}
		fmt.Fprintf(stdout, "%-56s %-14s %s%s\n", name, noise, def.Desc, constraint)
		shown++
	}
	fmt.Fprintf(stdout, "-- %d of %d events\n", shown, len(names))
	return nil
}
