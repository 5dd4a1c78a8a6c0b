// Package cli is the tiny shared harness for the repository's commands:
// every main package implements run(args, stdout, stderr) and hands it to
// Main, which maps the outcome onto conventional exit codes. Keeping the
// whole command body behind an injectable-stream function is what makes the
// golden CLI tests possible — they call run in-process and snapshot stdout.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// UsageError marks a command-line usage problem; Main exits 2 for it — the
// status flag.ExitOnError would have produced. Quiet suppresses Main's error
// line for parse failures the flag package has already reported on stderr.
type UsageError struct {
	Err   error
	Quiet bool
}

func (e *UsageError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef formats a usage error (exit status 2).
func Usagef(format string, args ...interface{}) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// ParseFlags parses args with fs, folding the flag package's behavior into
// the harness contract: -h/-help stays flag.ErrHelp (exit 0, usage already
// printed), any other parse failure becomes a quiet UsageError (exit 2,
// message already printed by fs). fs must use flag.ContinueOnError.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &UsageError{Err: err, Quiet: true}
	}
	return nil
}

// SplitList splits a comma-separated flag value into its trimmed non-empty
// entries; an empty or all-whitespace value yields nil (the flag's default).
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Main runs a command against the process streams and exits: 0 on success or
// -h, 2 on usage errors, 1 on anything else.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(ExitCode(name, run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// ExitCode maps a run error onto an exit status, reporting unprinted errors
// to stderr with the command-name prefix log.Fatal used to add. A message
// that already begins with that prefix, as a package error named after its
// command does, is printed as it is rather than prefixed twice.
func ExitCode(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	code := 1
	var ue *UsageError
	if errors.As(err, &ue) {
		if ue.Quiet {
			return 2
		}
		code = 2
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, name+": ") {
		msg = name + ": " + msg
	}
	fmt.Fprintln(stderr, msg)
	return code
}
