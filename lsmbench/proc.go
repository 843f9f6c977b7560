package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childRun is one finished run of a program under test.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS float64       // peak resident set, MB
	stdout string
}

// runChild runs a program from the bin directory to completion and
// measures it.
func runChild(bin, name string, args ...string) (childRun, error) {
	cmd := exec.Command(filepath.Join(bin, name), args...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	peak := watchPeakRSS(cmd.Process.Pid)
	err := cmd.Wait()
	wall := time.Since(t0)
	maxRSS := peak()
	if err != nil {
		return childRun{}, fmt.Errorf("%s %v: %w\n%s", name, args, err, errb.String())
	}
	return childRun{
		wall:   wall,
		cpu:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		maxRSS: maxRSS,
		stdout: out.String(),
	}, nil
}

// peakRSSEvery is how often watchPeakRSS samples. A program's peak
// resident set holds for far longer than this in every workload.
const peakRSSEvery = 10 * time.Millisecond

// watchPeakRSS samples a running process's peak resident set until the
// returned function is called, which returns the last sample in MB.
// The peak comes from /proc, not from rusage: Go starts children with
// vfork, and Linux then charges the parent's own peak to the child's
// ru_maxrss, so rusage reads at least the benchmark's peak.
func watchPeakRSS(pid int) func() float64 {
	done := make(chan struct{})
	last := make(chan float64, 1)
	go func() {
		var peak float64
		tick := time.NewTicker(peakRSSEvery)
		defer tick.Stop()
		for {
			if mb, ok := peakRSS(pid); ok {
				peak = mb
			}
			select {
			case <-done:
				last <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-last
	}
}

// peakRSS reads a live process's VmHWM, its peak resident set since it
// started its program, in MB.
func peakRSS(pid int) (float64, bool) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
