package platdef

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzPlatDef drives the text parser with arbitrary bytes and checks its
// contract: it never panics, every failure is a typed *Error, and every
// accepted input canonicalizes to a parse/canonicalize fixpoint. The seed
// corpus covers the known hostile shapes: truncated files, non-finite
// coefficients, duplicate names, zero-event catalogs and absurd counter
// limits.
func FuzzPlatDef(f *testing.F) {
	seeds := []string{
		// Valid minimal definition.
		"platdef v1\n\nplatform ok-sim\nclass cpu\ncounters 4\n\nevent E\ndesc fine\nrespond cpu.instr=1\ndoc cpu.instr=1\n",
		// Truncations.
		"",
		"platdef v1",
		"platdef v1\nplatform trunc-sim\n",
		"platdef v1\nplatform trunc-sim\nclass cpu\ncounters 4\n\nevent E\nrespond",
		"platdef v1\nplatform trunc-sim\nclass cpu\ncounters 4\n\nevent",
		// Non-finite and malformed coefficients.
		"platdef v1\nplatform nan-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=NaN\n",
		"platdef v1\nplatform inf-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=+Inf\n",
		"platdef v1\nplatform inf-sim\nclass cpu\ncounters 4\n\nevent E\nnoise -Inf 0\nrespond cpu.instr=1\n",
		"platdef v1\nplatform bad-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=0x1p99999\n",
		// Duplicate names (events, terms, constraints, directives).
		"platdef v1\nplatform dup-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=1\n\nevent E\nrespond cpu.cycles=1\n",
		"platdef v1\nplatform dup-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=1 cpu.instr=2\n",
		"platdef v1\nplatform dup-sim\nclass cpu\ncounters 4\nfixed E 0\nfixed E 1\n\nevent E\nrespond cpu.instr=1\n",
		"platdef v1\nplatform dup-sim\nplatform dup2-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=1\n",
		// Zero-event catalog.
		"platdef v1\nplatform empty-sim\nclass cpu\ncounters 4\n",
		// Absurd counter limits and slots.
		"platdef v1\nplatform big-sim\nclass cpu\ncounters 999999999\n\nevent E\nrespond cpu.instr=1\n",
		"platdef v1\nplatform neg-sim\nclass cpu\ncounters -3\n\nevent E\nrespond cpu.instr=1\n",
		"platdef v1\nplatform slot-sim\nclass cpu\ncounters 4\nfixed E 9999999\n\nevent E\nrespond cpu.instr=1\n",
		"platdef v1\nplatform slot-sim\nclass cpu\ncounters 4\nallowed E 0,1,2,3,4,5,6,7,8,9,-1\n\nevent E\nrespond cpu.instr=1\n",
		// Oversized and hostile names.
		"platdef v1\nplatform " + strings.Repeat("x", 300) + "-sim\nclass cpu\ncounters 4\n\nevent E\nrespond cpu.instr=1\n",
		"platdef v1\nplatform tab-sim\nclass cpu\ncounters 4\n\nevent A\x01B\nrespond cpu.instr=1\n",
		// Comment/whitespace stress.
		"# lead\n\n  platdef v1  \n#x\nplatform c-sim\nclass gpu\ncounters 1\n\nevent E\ndesc   spaced   out\nrespond gpu.flops=0.5\ndoc\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			var perr *Error
			if !errors.As(err, &perr) {
				t.Fatalf("Parse error is %T, want *platdef.Error: %v", err, err)
			}
			if p != nil {
				t.Fatal("Parse returned a platform alongside an error")
			}
			return
		}
		c1 := p.Canonical()
		p2, err := Parse(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanonical: %q", err, data, c1)
		}
		if c2 := p2.Canonical(); !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalize not a fixpoint\nfirst: %q\nsecond: %q", c1, c2)
		}
	})
}
