// Command clrbench is the repository's standing benchmark. One invocation
// runs one workload in a closed loop — one operation at a time, in one
// process — checks every operation's output, and prints every metric by
// name with its unit; the last line of standard output is a JSON summary.
//
//	bash clrbench/run.sh --workload mcf --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it runs the separate traced measurement instead: spans around
// every timed call batch, the per-layer probes, the layer ledger and the
// modelled-result metrics. README.md in this directory documents every
// metric, workload and number.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the arguments, measures and prints; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 25, "length of the closed loop of operations, in seconds")
	traceFlag := fs.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced per-layer measurement")
	spansDir := fs.String("spans-dir", ".", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "clrbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "clrbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "clrbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	b := newBench(w, fullSizes, *seed)
	window := time.Duration(*seconds * float64(time.Second))
	var (
		rep *report
		err error
	)
	if *traceFlag == 1 {
		rep, err = b.traced(ctx, window, *spansDir)
	} else {
		rep, err = b.endToEnd(ctx, window)
	}
	if err != nil {
		fmt.Fprintf(stderr, "clrbench: %v\n", err)
		return 1
	}
	if err := rep.write(stdout, b); err != nil {
		fmt.Fprintf(stderr, "clrbench: %v\n", err)
		return 1
	}
	return 0
}
