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
	"slices"
	"strings"

	"github.com/perfmetrics/eventlens/internal/cli"
	"github.com/perfmetrics/eventlens/internal/machine"
	"github.com/perfmetrics/eventlens/internal/platdef"
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
			p, err := reg.Platform(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-20s %-4s %6d events  %3d counters\n",
				name, p.Class, len(p.Events), p.Counters)
		}
		return nil
	}
	p, err := reg.Platform(*platformName)
	if err != nil {
		return cli.Usagef("%v", err)
	}

	events := slices.Clone(p.Events)
	slices.SortFunc(events, func(a, b platdef.Event) int { return strings.Compare(a.Name, b.Name) })
	if *counts {
		noisy := 0
		for _, e := range events {
			if e.RelNoise > 0 || e.AbsNoise > 0 {
				noisy++
			}
		}
		fmt.Fprintf(stdout, "%s: %d events (%d deterministic, %d noisy), %d programmable counters, %d counter constraints\n",
			p.Name, len(events), len(events)-noisy, noisy, p.Counters, len(p.Constraints))
		return nil
	}
	fixed := make(map[string]int)
	for _, c := range p.Constraints {
		if c.Fixed >= 0 {
			fixed[c.Event] = c.Fixed
		}
	}
	shown := 0
	for _, e := range events {
		if *grep != "" && !strings.Contains(e.Name, *grep) {
			continue
		}
		noise := "deterministic"
		if e.RelNoise > 0 {
			noise = fmt.Sprintf("noise %.1e", e.RelNoise)
		}
		constraint := ""
		if slot, ok := fixed[e.Name]; ok {
			constraint = fmt.Sprintf("  [fixed counter %d]", slot)
		}
		fmt.Fprintf(stdout, "%-56s %-14s %s%s\n", e.Name, noise, e.Desc, constraint)
		shown++
	}
	fmt.Fprintf(stdout, "-- %d of %d events\n", shown, len(events))
	return nil
}
