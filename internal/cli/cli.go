// Package cli is the shape every command under cmd/ shares: main is
// os.Exit(cli.Exit(name, run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)),
// and run parses its own flag set with Parse.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// ErrUsage reports a command line that was rejected after its diagnostic
// was printed (by the flag set, or by run).
var ErrUsage = errors.New("usage")

// ErrInterrupted reports a run that SIGINT cut short after its partial
// output was written.
var ErrInterrupted = errors.New("interrupted")

// Parse parses args into fs, which prints its diagnostics to stderr: a
// malformed line is ErrUsage, -h is flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return ErrUsage
	}
	return err
}

// Exit maps run's error to the process exit status: 0 for success and -h,
// 2 for a usage error, 130 for an interrupted run, and otherwise 1 after
// printing "name: err" to stderr.
func Exit(name string, err error, stderr io.Writer) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, ErrUsage):
		return 2
	case errors.Is(err, ErrInterrupted):
		return 130
	}
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 1
}
