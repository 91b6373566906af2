// Command hlofuzz drives the differential fuzzer: it generates random
// MiniC programs, compiles each under the full HLO configuration matrix
// (scopes × budgets × cost models × cache behaviour, all with
// per-mutation verification), and cross-checks interpreter output,
// machine-model output, isom round-trips and remark-stream determinism
// against the unoptimized reference build.
//
// Usage:
//
//	hlofuzz [flags]
//
// Flags:
//
//	-budget 30s     wall-clock budget (0 = no time limit)
//	-n N            seed budget (0 = unlimited; -budget or -n required)
//	-j N            parallel workers (default GOMAXPROCS)
//	-seed N         first seed (default 1)
//	-corpus DIR     crash corpus directory (default testdata/fuzz-corpus)
//	-replay PATH    replay one corpus file, or every entry of a directory
//	-no-minimize    store failures unshrunk
//	-inject-bug B   deliberately miscompile (mutation-test the oracles);
//	                known bugs: inline-swap-args
//	-faults         run the fault-injection campaign instead of fuzzing:
//	                every registered resilience point is armed one at a
//	                time over the specsuite and must recover as documented
//	                (rollback remark + byte-identical output, or a
//	                structured error) — see internal/fuzz/faults.go
//	-faults-seed N  campaign seed (default 1); fixes the firing sites
//	-faults-bench L comma-separated benchmarks (default: all)
//
// Failures are minimized with the greedy line minimizer and written to
// the corpus as replayable .minic files. Exit status: 0 clean, 1 when
// any divergence was found, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/fuzz"
)

func main() {
	budget := flag.Duration("budget", 0, "wall-clock budget (0 = none)")
	n := flag.Int("n", 0, "number of seeds to try (0 = unlimited)")
	workers := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "first seed")
	corpus := flag.String("corpus", "testdata/fuzz-corpus", "crash corpus directory")
	replay := flag.String("replay", "", "replay a corpus file or directory instead of fuzzing")
	noMinimize := flag.Bool("no-minimize", false, "store failures unshrunk")
	injectBug := flag.String("inject-bug", "", "deliberately miscompile (oracle self-test)")
	faults := flag.Bool("faults", false, "run the fault-injection campaign")
	faultsSeed := flag.Int64("faults-seed", 1, "fault campaign seed")
	faultsBench := flag.String("faults-bench", "", "comma-separated benchmarks for -faults (default all)")
	flag.Parse()

	cfg := fuzz.Config{Workers: *workers, InjectBug: *injectBug}

	if *faults {
		os.Exit(runFaults(*faultsSeed, *faultsBench))
	}
	if *replay != "" {
		os.Exit(replayPath(*replay, cfg))
	}
	if *budget == 0 && *n == 0 {
		fmt.Fprintln(os.Stderr, "hlofuzz: need -budget or -n")
		os.Exit(2)
	}

	deadline := time.Time{}
	if *budget > 0 {
		deadline = time.Now().Add(*budget)
	}
	// Batch size: big enough to keep the workers busy, small enough to
	// respect the deadline with reasonable granularity.
	batch := 64
	tried, failures := 0, 0
	for cur := *seed; ; cur += int64(batch) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		if *n > 0 && tried >= *n {
			break
		}
		bn := batch
		if *n > 0 && *n-tried < bn {
			bn = *n - tried
		}
		for _, f := range fuzz.Run(cur, bn, cfg) {
			failures++
			report(f, *corpus, *noMinimize, cfg)
		}
		tried += bn
		fmt.Fprintf(os.Stderr, "hlofuzz: %d seeds tried, %d failures\n", tried, failures)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// runFaults runs the fault-injection campaign and reports per-point
// firing counts. Exit status mirrors the fuzzer: 0 when every injection
// recovered as documented, 1 otherwise.
func runFaults(seed int64, benches string) int {
	cfg := fuzz.FaultConfig{Seed: seed}
	if benches != "" {
		cfg.Benchmarks = strings.Split(benches, ",")
	}
	rep, err := fuzz.RunFaults(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlofuzz:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "hlofuzz: faults: seed %d, %d benchmarks, %d trials\n",
		seed, rep.Benches, rep.Trials)
	for _, name := range sortedKeys(rep.Fired) {
		fmt.Fprintf(os.Stderr, "hlofuzz: faults: %-16s fired %d, recovered\n", name, rep.Fired[name])
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "hlofuzz: FAILURE %v\n", f)
	}
	if !rep.Ok() {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report minimizes (unless disabled), prints, and stores one failure.
func report(f *fuzz.Failure, corpusDir string, noMinimize bool, cfg fuzz.Config) {
	fmt.Fprintf(os.Stderr, "hlofuzz: FAILURE %v\n", f)
	if !noMinimize {
		orig := *f
		f.Sources = fuzz.Minimize(f.Sources, func(cand []string) bool {
			r := fuzz.CheckSources(cand, f.Inputs, f.Train, cfg)
			return r != nil && r.Kind == orig.Kind && r.Cell == orig.Cell
		})
		fmt.Fprintf(os.Stderr, "hlofuzz: minimized to %d lines\n", fuzz.LineCount(f.Sources))
	}
	path, err := fuzz.WriteCorpus(corpusDir, f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hlofuzz: writing corpus: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "hlofuzz: stored %s\n", path)
}

// replayPath re-checks one file or every entry of a directory.
func replayPath(path string, cfg fuzz.Config) int {
	st, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlofuzz:", err)
		return 2
	}
	files := []string{path}
	if st.IsDir() {
		files, err = fuzz.CorpusFiles(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hlofuzz:", err)
			return 2
		}
	}
	bad := 0
	for _, file := range files {
		f, err := fuzz.ReplayFile(file, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlofuzz: %s: %v\n", file, err)
			bad++
			continue
		}
		if f != nil {
			fmt.Fprintf(os.Stderr, "hlofuzz: %s still fails: %v\n", file, f)
			bad++
		} else {
			fmt.Fprintf(os.Stderr, "hlofuzz: %s ok\n", file)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
