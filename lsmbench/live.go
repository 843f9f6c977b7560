package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/liveserver"
	"repro/internal/wmslog"
)

const (
	// liveWarmup runs before measuring so connections, buffers and the
	// server's log file are warm; its transfers are checked, not timed.
	liveWarmup = time.Second
	// liveBatch is the number of consecutive completions whose wall
	// time is one wall_s sample.
	liveBatch = 1000
	// maxSessionTransfers bounds the transfers of one tagged session.
	maxSessionTransfers = 8
)

var liveObjects = []string{"/live/feed1", "/live/feed2"}

var lanesRE = regexp.MustCompile(`(\d+) serve lanes`)

// server is a running lsmserve child.
type server struct {
	cmd      *exec.Cmd
	addr     string
	metrics  string
	lanes    string // the GOMAXPROCS lsmserve announced
	drained  chan struct{}
	stderr   bytes.Buffer
	stopOnce sync.Once
	stopErr  error
}

// startServer starts lsmserve on ephemeral ports and reads the
// addresses it announces.
func startServer(bin, logPath string) (*server, error) {
	s := &server{drained: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(bin, "lsmserve"), "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-log", logPath)
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	for (s.addr == "" || s.metrics == "") && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "live streaming server on "); ok {
			s.addr, _, _ = strings.Cut(rest, " ")
			if m := lanesRE.FindStringSubmatch(rest); m != nil {
				s.lanes = m[1]
			}
		}
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			s.metrics = rest
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, out) // periodic status lines
		close(s.drained)
	}()
	if s.addr == "" || s.metrics == "" {
		s.stop()
		return nil, fmt.Errorf("lsmserve did not announce its addresses: %s", s.stderr.String())
	}
	return s, nil
}

// stop interrupts the server, which flushes and closes its log, and
// waits for it to exit; a server that does not exit is killed.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(os.Interrupt)
		exited := make(chan error, 1)
		go func() {
			<-s.drained
			exited <- s.cmd.Wait()
		}()
		select {
		case s.stopErr = <-exited:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-exited
			s.stopErr = fmt.Errorf("lsmserve did not stop on interrupt")
		}
		if s.stopErr != nil {
			s.stopErr = fmt.Errorf("lsmserve: %w: %s", s.stopErr, s.stderr.String())
		}
	})
	return s.stopErr
}

// kill ends a server whose log is not needed and waits for it.
func (s *server) kill() {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Kill()
		<-s.drained
		_ = s.cmd.Wait()
	})
}

// counters reads the server's /metrics endpoint.
func (s *server) counters() (map[string]int64, error) {
	resp, err := http.Get(s.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, v, ok := strings.Cut(sc.Text(), " "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics line %q: %w", sc.Text(), err)
			}
			out[name] = n
		}
	}
	return out, sc.Err()
}

// transferPlan yields the seed-determined tagged transfers one client
// connection runs: sessions conn, conn+conns, ..., each of 1 to
// maxSessionTransfers transfers on a seed-chosen feed.
type transferPlan struct {
	seed          int64
	session, step int64
	seq, n        int
	uri           string
}

func (p *transferPlan) next() (session int64, seq int, uri string) {
	if p.seq == p.n {
		p.session += p.step
		rng := rand.New(rand.NewPCG(uint64(p.seed), uint64(p.session)))
		p.seq, p.n = 0, 1+rng.IntN(maxSessionTransfers)
		p.uri = liveObjects[rng.IntN(len(liveObjects))]
	}
	p.seq++
	return p.session, p.seq - 1, p.uri
}

// liveSample is one completed transfer as the client saw it.
type liveSample struct {
	tag         tag
	done        time.Time
	start, stop time.Duration // START → OK START, OK START → END
}

// runLive drives a child lsmserve in a closed loop: cfg.conns
// persistent connections, each running zero-watch-time tagged
// transfers (START → OK START → STOP → END) back to back.
func runLive(cfg config) (*result, error) {
	res := &result{}
	logPath := filepath.Join(cfg.work, "transfers.log")
	ref := refTask()

	// Set-up: start the server until it accepts a client, several
	// times; the last one serves the run.
	var setups []time.Duration
	var dials []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.bin, logPath)
		if err != nil {
			return nil, err
		}
		d0 := time.Now()
		c, err := liveserver.Dial(s.addr, "bench-setup")
		if err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		dials = append(dials, ms(time.Since(d0)))
		c.Close()
		if i < setupRepeats-1 {
			// It may not have installed its interrupt handler yet, and
			// its empty log is not needed.
			s.kill()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	// The load generator runs on one P so that it and the server do not
	// oversubscribe the cores between them; it needs far less CPU than
	// the server it drives.
	procs := runtime.GOMAXPROCS(1)
	var mu sync.Mutex
	var samples []liveSample
	var attempted, failed int64
	var transferErr error
	measureFrom := time.Now().Add(liveWarmup)
	deadline := measureFrom.Add(cfg.budget())
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plan := &transferPlan{seed: cfg.seed, session: int64(w) - int64(cfg.conns), step: int64(cfg.conns)}
			d0 := time.Now()
			c, err := liveserver.Dial(srv.addr, "bench-player-"+strconv.Itoa(w))
			dial := ms(time.Since(d0))
			var local []liveSample
			var att, fail int64
			for err == nil && time.Now().Before(deadline) {
				session, seq, uri := plan.next()
				att++
				r, werr := c.WatchTagged(uri, session, seq, 0)
				if werr != nil {
					fail++
					err = werr
					break
				}
				local = append(local, liveSample{tag{session, seq}, time.Now(), r.StartLatency, r.Duration})
			}
			if c != nil {
				c.Close()
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, local...)
			attempted, failed = attempted+att, failed+fail
			dials = append(dials, dial)
			if err != nil && transferErr == nil {
				transferErr = err
			}
		}(w)
	}
	wg.Wait()
	runtime.GOMAXPROCS(procs)
	res.Attempted, res.Failed = attempted, failed
	if transferErr != nil {
		return res, checkf("live transfer failed: %v", transferErr)
	}

	counters, err := srv.counters()
	if err != nil {
		return nil, err
	}
	serverRSS, ok := peakRSS(srv.cmd.Process.Pid)
	if !ok {
		return nil, fmt.Errorf("no peak RSS for lsmserve (pid %d)", srv.cmd.Process.Pid)
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	logged, err := loggedTags(logPath)
	if err != nil {
		return nil, err
	}
	completed := make([]tag, len(samples))
	for i, s := range samples {
		completed[i] = s.tag
	}
	checkErr := checkLiveLog(logged, completed, counters["transfers_served"])

	sort.Slice(samples, func(i, j int) bool { return samples[i].done.Before(samples[j].done) })
	var starts, stops, batches []float64
	var measured []liveSample
	for _, s := range samples {
		if !s.done.Before(measureFrom) {
			measured = append(measured, s)
			starts, stops = append(starts, ms(s.start)), append(stops, ms(s.stop))
		}
	}
	for i := liveBatch; i < len(measured); i += liveBatch {
		batches = append(batches, measured[i].done.Sub(measured[i-liveBatch].done).Seconds())
	}
	if len(batches) == 0 {
		return res, checkf("only %d transfers completed in the measured window, need more than %d", len(measured), liveBatch)
	}
	window := measured[len(measured)-1].done.Sub(measureFrom).Seconds()
	printEnv(fmt.Sprintf("conns=%d client_gomaxprocs=1 server_lanes=%s", cfg.conns, srv.lanes))
	fmt.Printf("live-control: seed %d: %d transfers (%d measured), %.4g transfers/s, start p50 %.4f ms p99 %.4f ms over %d samples; reference task %.4g s\n",
		cfg.seed, len(samples), len(measured), float64(len(measured))/window, quantile(starts, 0.5), quantile(starts, 0.99), len(starts), ref)

	if !cfg.trace {
		res.set("setup_s", median(seconds(setups)), "s")
		res.set("wall_s", median(batches), "s")
		res.set("peak_rss_mb", serverRSS, "MB")
		return res, checkErr
	}
	zeroLayers(res)
	res.set("liveserver.dial_ms", median(dials), "ms")
	res.set("liveserver.start_ms", quantile(starts, 0.5), "ms")
	res.set("liveserver.start_ms_p99", quantile(starts, 0.99), "ms")
	res.set("liveserver.start_samples", float64(len(starts)), "count")
	res.set("liveserver.stop_ms", quantile(stops, 0.5), "ms")
	res.set("liveserver.served", float64(counters["transfers_served"]), "count")
	res.set("liveserver.refused", float64(counters["conns_refused"]), "count")
	res.set("liveserver.conns", float64(counters["conns_accepted"]), "count")
	cpu := srv.cmd.ProcessState.UserTime() + srv.cmd.ProcessState.SystemTime()
	res.set("proc.cpu_s", cpu.Seconds(), "s")
	res.set("bench.ref_s", ref, "s")
	return res, checkErr
}

// loggedTags reads the server's transfer log back and returns each
// entry's (session, seq) tag.
func loggedTags(path string) ([]tag, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, _, err := wmslog.ReadAll(f, false)
	if err != nil {
		return nil, err
	}
	tags := make([]tag, 0, len(entries))
	for _, e := range entries {
		session, seq, ok := e.SessionSeq()
		if !ok {
			return nil, checkf("untagged entry in the server log: player %s at %v", e.PlayerID, e.Timestamp)
		}
		tags = append(tags, tag{session, seq})
	}
	return tags, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
