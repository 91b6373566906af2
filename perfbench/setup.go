package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/pa8000"
	"repro/internal/specsuite"
)

// setupProbes is how many cold starts one run times for setup_s: half
// before the deck is built and half after it has run, so the median
// spans the host's state over the whole run.
const setupProbes = 20

// coldStarts times n of the workload's start-ups in fresh processes: a
// start-up does one-time work (the suite build is a sync.Once, the
// simulator pool pins its arenas), so only a new process repeats it.
// Each probe is timed from process start until it reports ready, which
// also counts any work a package moves into its initializers. The
// times are returned in seconds.
func coldStarts(name, workdir string, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, n)
	for range n {
		d, err := probeOnce(self, name, workdir)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

func probeOnce(self, name, workdir string) (time.Duration, error) {
	cmd := exec.Command(self, "-setup-probe", name, "-workdir", workdir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	stdin.Close() // tells the probe to tear down and exit
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("probe did not report ready (%q, %v, %v)", line, readErr, waitErr)
	}
	return d, waitErr
}

// setupProbe is the child side: perform the workload's start-up, say
// "ready", and tear down once stdin closes.
func setupProbe(name, workdir string) error {
	var stop func() error
	switch name {
	case "paper-eval":
		// hlobench's start-up: the suite build, and one pinned
		// simulator machine for its one lane.
		specsuite.All()
		pa8000.Prewarm(pa8000.Config{}, 1)
	case "large-programs":
		// Generated programs need no suite; the pool prewarm remains.
		pa8000.Prewarm(pa8000.Config{}, 1)
	case "daemon-mix":
		d, err := startDaemon(workdir, daemonWorkers())
		if err != nil {
			return err
		}
		stop = d.stop
	default:
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Println("ready")
	io.Copy(io.Discard, os.Stdin)
	if stop != nil {
		return stop()
	}
	return nil
}
