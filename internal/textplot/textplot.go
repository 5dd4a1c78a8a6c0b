// Package textplot renders small ASCII charts for terminal output: the
// log-scale variability scatter of the paper's Figure 2 and the overlaid
// series plot of Figure 3. It exists so the figure-regeneration tools can
// show shape at a glance without any plotting dependency; exact values are
// emitted alongside as CSV.
package textplot

import (
	"fmt"
	"math"
	"strings"

	"github.com/perfmetrics/eventlens/internal/mat"
)

// LogScatter renders values (assumed non-negative, typically spanning many
// decades) as a scatter over a log10 y-axis. Zero values are pinned to the
// floor decade, mirroring how the paper plots zero-noise events at machine
// epsilon. A horizontal threshold line is drawn at thresh if it is positive.
func LogScatter(title string, values []float64, thresh float64, width, height int) string {
	if len(values) == 0 {
		return title + "\n(no data)\n"
	}
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	// Decade range.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v <= 0 {
			continue
		}
		l := math.Log10(v)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if thresh > 0 {
		l := math.Log10(thresh)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if math.IsInf(lo, 1) { // all zero
		lo, hi = -16, 0
	}
	lo = math.Floor(lo) - 1 // reserve the floor decade for zeros
	hi = math.Ceil(hi)
	if hi <= lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	row := func(v float64) int {
		var l float64
		if v <= 0 {
			l = lo
		} else {
			l = math.Log10(v)
		}
		frac := (l - lo) / (hi - lo)
		r := height - 1 - int(frac*float64(height-1)+0.5)
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	if thresh > 0 {
		r := row(thresh)
		for c := 0; c < width; c++ {
			grid[r][c] = '-'
		}
	}
	for i, v := range values {
		c := i * (width - 1) / max(len(values)-1, 1)
		grid[row(v)][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, line := range grid {
		decade := hi - (hi-lo)*float64(i)/float64(height-1)
		fmt.Fprintf(&b, "1e%+03.0f |%s|\n", decade, string(line))
	}
	fmt.Fprintf(&b, "      +%s+  (n=%d", strings.Repeat("-", width), len(values))
	if thresh > 0 {
		fmt.Fprintf(&b, ", --- tau=%.0e", thresh)
	}
	b.WriteString(")\n")
	return b.String()
}

// Series renders two aligned series (measured combination vs signature) over
// categorical x positions, marking the combination with '*' and the
// signature with 'o' ('@' where they coincide).
func Series(title string, combo, signature []float64, labels []string, width, height int) string {
	if len(combo) == 0 || len(combo) != len(signature) {
		return title + "\n(no data)\n"
	}
	if height < 4 {
		height = 4
	}
	maxV := 0.0
	for i := range combo {
		maxV = math.Max(maxV, math.Max(combo[i], signature[i]))
	}
	if mat.IsZero(maxV) {
		maxV = 1
	}
	cols := len(combo)
	colW := 3
	gridW := cols * colW
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", gridW))
	}
	row := func(v float64) int {
		r := height - 1 - int(v/maxV*float64(height-1)+0.5)
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	for i := range combo {
		c := i*colW + 1
		rc, rs := row(combo[i]), row(signature[i])
		if rc == rs {
			grid[rc][c] = '@'
		} else {
			grid[rc][c] = '*'
			grid[rs][c] = 'o'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for i, line := range grid {
		v := maxV * float64(height-1-i) / float64(height-1)
		fmt.Fprintf(&b, "%5.2f |%s|\n", v, string(line))
	}
	fmt.Fprintf(&b, "      +%s+\n", strings.Repeat("-", gridW))
	if len(labels) == len(combo) {
		fmt.Fprintf(&b, "       %s\n", legendRow(labels, colW))
	}
	b.WriteString("       * = raw-event combination, o = signature, @ = both\n")
	return b.String()
}

// legendRow compresses labels to one character per column position.
func legendRow(labels []string, colW int) string {
	var b strings.Builder
	for _, l := range labels {
		ch := " "
		if len(l) > 0 {
			ch = l[:1]
		}
		b.WriteString(" " + ch + strings.Repeat(" ", colW-2))
	}
	return b.String()
}
