// Command hloprof is the offline flight-record analyzer: it reads span
// streams (the JSONL written by hlobench -spans-json or hlocc
// -spans-json), prints the hierarchical "where the time goes"
// attribution report, ranks the straggler cells that serialize a
// parallel run, and optionally converts the record to Chrome
// trace-event JSON for chrome://tracing / Perfetto.
//
// Usage:
//
//	hloprof [flags] spans.jsonl [more.jsonl ...]
//
// Flags:
//
//	-top N            straggler spans to rank (default 10, 0 disables)
//	-cell-prefix P    span-name prefix of the straggler ranking
//	                  (default "cell/")
//	-trace-out F      also write the spans as Chrome trace-event JSON
//	-min-coverage PCT exit 1 if attribution coverage is below PCT
//	                  (e.g. 90; 0 disables the gate); a stream with no
//	                  closed span reads 0% and fails it
//
// Multiple input files are concatenated in argument order, so per-
// experiment dumps aggregate into one report. Exit status 1 on the
// coverage gate makes hloprof double as the CI check that the span
// instrumentation keeps explaining where the time goes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
)

func main() {
	top := flag.Int("top", 10, "straggler spans to rank (0 disables)")
	cellPrefix := flag.String("cell-prefix", "cell/", "span-name prefix of the straggler ranking")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON to this file")
	minCoverage := flag.Float64("min-coverage", 0, "exit 1 if coverage %% is below this (0 disables)")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hloprof: no span files (expected the JSONL of hlobench -spans-json or hlocc -spans-json)")
		os.Exit(2)
	}
	var spans []obs.Span
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		got, err := obs.DecodeSpansJSONL(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %v", path, err))
		}
		spans = append(spans, got...)
	}

	attr := obs.Aggregate(spans)
	if err := obs.WriteAttribution(os.Stdout, attr); err != nil {
		fatal(err)
	}

	if *top > 0 {
		stragglers := obs.TopSpans(spans, *cellPrefix, *top)
		if len(stragglers) > 0 {
			fmt.Printf("\nstragglers (longest %q spans):\n", *cellPrefix)
			for _, sp := range stragglers {
				fmt.Printf("  %-44s %9.2fms\n", sp.Name, sp.Dur.Seconds()*1000)
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteTraceEvents(f, spans); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *minCoverage > 0 {
		if got := 100 * attr.Coverage(); got < *minCoverage {
			fmt.Fprintf(os.Stderr, "hloprof: coverage %.1f%% below the -min-coverage %.1f%% gate\n", got, *minCoverage)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hloprof:", err)
	os.Exit(1)
}
