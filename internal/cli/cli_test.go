package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		want       int
		wantStderr string
	}{
		{"nil", nil, 0, ""},
		{"help", flag.ErrHelp, 0, ""},
		{"wrapped help", fmt.Errorf("parse: %w", flag.ErrHelp), 0, ""},
		{"usage", Usagef("missing -bench"), 2, "cmd: missing -bench\n"},
		{"quiet usage", &UsageError{Err: errors.New("already printed"), Quiet: true}, 2, ""},
		{"runtime", errors.New("boom"), 1, "cmd: boom\n"},
		{"already prefixed", errors.New("cmd: encode report: NaN"), 1, "cmd: encode report: NaN\n"},
		{"wrapped prefix", fmt.Errorf("cmd: load: %w", errors.New("cmd: inner")), 1, "cmd: load: cmd: inner\n"},
		{"prefix without separator", errors.New("cmdline too long"), 1, "cmd: cmdline too long\n"},
		{"prefixed usage", Usagef("cmd: unknown platform"), 2, "cmd: unknown platform\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr strings.Builder
			if got := ExitCode("cmd", c.err, &stderr); got != c.want {
				t.Errorf("ExitCode = %d, want %d", got, c.want)
			}
			if stderr.String() != c.wantStderr {
				t.Errorf("stderr = %q, want %q", stderr.String(), c.wantStderr)
			}
		})
	}
}

func TestParseFlags(t *testing.T) {
	newFS := func(out io.Writer) *flag.FlagSet {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		fs.SetOutput(out)
		fs.String("in", "", "input")
		return fs
	}
	var sink strings.Builder

	if err := ParseFlags(newFS(&sink), []string{"-in", "x"}); err != nil {
		t.Fatalf("valid flags: %v", err)
	}
	if err := ParseFlags(newFS(&sink), []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	err := ParseFlags(newFS(&sink), []string{"-nope"})
	var ue *UsageError
	if !errors.As(err, &ue) || !ue.Quiet {
		t.Fatalf("bad flag: got %#v, want quiet UsageError", err)
	}
	if !strings.Contains(sink.String(), "-nope") {
		t.Error("flag package did not report the bad flag")
	}
}
