// Command gpufi-asm assembles, inspects, and disassembles kernels written
// in the SASS-like assembly: resource demands, the control-flow graph, and
// the reconvergence PCs the SIMT stack uses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gpufi"
	"gpufi/internal/asm"
	"gpufi/internal/cli"
)

func main() { os.Exit(cli.Exit("gpufi-asm", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// options is gpufi-asm's command line.
type options struct{ cfg, quiet bool }

// flags declares the command line on o.
func (o *options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("gpufi-asm", flag.ContinueOnError)
	fs.BoolVar(&o.cfg, "cfg", false, "print basic blocks and post-dominators")
	fs.BoolVar(&o.quiet, "q", false, "only validate; print nothing on success")
	return fs
}

// run assembles the file args names (stdin when none) and prints its
// kernels to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := o.flags()
	if err := cli.Parse(fs, args, stderr); err != nil {
		return err
	}

	var src []byte
	var err error
	switch fs.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(fs.Arg(0))
	default:
		return errors.New("usage: gpufi-asm [-cfg] [-q] [file.gasm]")
	}
	if err != nil {
		return err
	}

	progs, err := gpufi.AssembleAll(string(src))
	if err != nil {
		return err
	}
	if o.quiet {
		return nil
	}
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p := progs[n]
		fmt.Fprint(stdout, p.Disassemble())
		if o.cfg {
			g := asm.BuildCFG(p)
			ipdom := asm.PostDominators(g)
			fmt.Fprintf(stdout, "// %d basic blocks:\n", len(g.Blocks))
			for i, b := range g.Blocks {
				fmt.Fprintf(stdout, "//   B%d [%d,%d) succs=%v", i, b.Start, b.End, b.Succs)
				switch d := ipdom[i]; d {
				case -1:
					fmt.Fprint(stdout, " ipdom=EXIT")
				case -2:
					fmt.Fprint(stdout, " ipdom=unreachable")
				default:
					fmt.Fprintf(stdout, " ipdom=B%d", d)
				}
				if b.ToExit {
					fmt.Fprint(stdout, " ->exit")
				}
				fmt.Fprintln(stdout)
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
