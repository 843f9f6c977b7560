// Command lsmserve runs the live streaming media server standalone: a
// TCP implementation of the minimal MMS-like protocol serving the two
// reality-show feeds, logging completed transfers as Windows-Media-
// Server-style entries.
//
// Usage:
//
//	lsmserve [-addr 127.0.0.1:8555] [-log transfers.log] [-log-format text|binary]
//	         [-metrics host:port] [-rate 110000]
//	         [-max-conns 256] [-write-timeout 10s] [-idle-timeout 60s]
//	         [-serve-lanes N]
//	         [-fleet host:port] [-advertise host:port] [-beat 500ms]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// -log-format binary writes the transfer log in the framed binary
// wmslog format (decoded transparently by every reader — lsmload
// -check, lsmfleet -merge, lsmlog). -metrics serves the plain-text
// counters endpoint (conns, refusals, transfers) at
// http://host:port/metrics, the ops surface scripts poll instead of
// grepping logs.
//
// -serve-lanes caps how many CPUs the server schedules across
// (GOMAXPROCS); 0 — the default — uses every schedulable CPU, matching
// the simulator's serve-lane default so a node sized for N lanes
// behaves the same offline and online.
//
// -fleet joins the node to an lsmfleet redirector: the node registers
// its address (-advertise overrides what it announces, for NAT or
// multi-interface hosts) and heartbeats its load every -beat, so the
// front-end routes client transfers here and detects the node's death.
//
// -max-conns bounds concurrently served connections: a connection
// beyond the limit is answered with "ERR busy" and closed immediately —
// live viewers cannot be deferred, so capacity exhaustion is made
// visible, never a hang. -write-timeout disconnects readers that stop
// draining their socket; -idle-timeout drops half-open connections that
// go silent outside a transfer.
//
// Connect with the liveserver client package, the livereplay example,
// or drive it with generated workloads via lsmload. The server runs
// until interrupted (SIGINT or SIGTERM); on shutdown the transfer log
// is flushed and closed before the process exits, so the last entries
// are never lost.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/liveserver"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/wmslog"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8555", "listen address")
		logPath = flag.String("log", "", "optional path for WMS-style transfer log")
		logFmt  = flag.String("log-format", "text", "transfer log format: text (canonical) or binary (framed fast path)")
		metrics = flag.String("metrics", "", "optional address for the plain-text /metrics endpoint")
		rate    = flag.Int("rate", 110000, "stream rate in bits/second")
		maxConn = flag.Int("max-conns", 256, "maximum concurrent connections; extras get 'ERR busy', never a hang")
		writeTO = flag.Duration("write-timeout", 10*time.Second, "disconnect a client that stops reading after this long (0 disables)")
		idleTO  = flag.Duration("idle-timeout", 60*time.Second, "drop connections silent outside a transfer for this long (0 disables)")
		lanes   = flag.Int("serve-lanes", 0, "CPUs to schedule across (GOMAXPROCS; 0 = all)")

		fleet     = flag.String("fleet", "", "register with the lsmfleet redirector at this address and heartbeat load")
		advertise = flag.String("advertise", "", "address to advertise to the fleet (default: the actual listen address)")
		beat      = flag.Duration("beat", 500*time.Millisecond, "fleet heartbeat interval")

		profiles prof.Profiles
	)
	profiles.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *logFmt != "text" && *logFmt != "binary" {
		fmt.Fprintf(os.Stderr, "lsmserve: -log-format %q: want text or binary\n", *logFmt)
		os.Exit(2)
	}
	if *lanes > 0 {
		runtime.GOMAXPROCS(*lanes)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}

	app, err := newApp(appConfig{
		addr:         *addr,
		logPath:      *logPath,
		logBinary:    *logFmt == "binary",
		metricsAddr:  *metrics,
		rateBps:      *rate,
		maxConns:     *maxConn,
		writeTimeout: *writeTO,
		idleTimeout:  *idleTO,
	})
	if err != nil {
		profiles.Stop()
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}
	fmt.Printf("live streaming server on %s (%d bit/s, %d serve lanes)\n",
		app.srv.Addr(), *rate, runtime.GOMAXPROCS(0))
	if app.metrics != nil {
		fmt.Printf("metrics on http://%s/metrics\n", app.metrics.Addr())
	}
	if *fleet != "" {
		if err := app.joinFleet(*fleet, *advertise, *beat); err != nil {
			app.shutdown()
			profiles.Stop()
			fmt.Fprintln(os.Stderr, "lsmserve:", err)
			os.Exit(1)
		}
		fmt.Printf("registered with fleet redirector %s\n", *fleet)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	err = app.loop(interrupt, 10*time.Second, os.Stdout)
	// The profiles cover the server's full lifetime: they stop after
	// shutdown has drained the handlers, so the artifacts include every
	// served transfer.
	if perr := profiles.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve:", err)
		os.Exit(1)
	}
}

// appConfig collects what newApp needs to assemble a node.
type appConfig struct {
	addr    string
	logPath string
	// logBinary selects the framed binary log format over canonical
	// text for the transfer log.
	logBinary bool
	// metricsAddr, when non-empty, serves the plain-text /metrics
	// counters endpoint there.
	metricsAddr  string
	rateBps      int
	maxConns     int
	writeTimeout time.Duration
	idleTimeout  time.Duration
}

// app bundles the server with its transfer log so the shutdown path —
// stop serving, flush and close the log exactly once — is testable.
// Connection handlers complete (and log) concurrently; the SyncWriter
// serializes them.
type app struct {
	srv     *liveserver.Server
	agent   *cluster.Agent    // nil unless the node joined a fleet
	metrics *telemetry.Server // nil unless -metrics was given

	logWriter *wmslog.SyncWriter
	logFile   *os.File

	closeOnce sync.Once
	closeErr  error
}

// joinFleet registers the node with the redirector and starts the
// heartbeat loop, advertising the given address (default: the actual
// listen address).
func (a *app) joinFleet(frontend, advertise string, beat time.Duration) error {
	if advertise == "" {
		advertise = a.srv.Addr()
	}
	agent, err := cluster.StartAgent(frontend, advertise, beat, func() (int64, int64) {
		return a.srv.ActiveTransfers(), a.srv.ServedTransfers()
	})
	if err != nil {
		return err
	}
	a.agent = agent
	return nil
}

// newApp starts the server, wiring completed transfers into the log
// sink when a log path is configured and exposing /metrics when a
// metrics address is.
func newApp(ac appConfig) (*app, error) {
	cfg := liveserver.DefaultServerConfig()
	cfg.MaxConns = ac.maxConns
	cfg.WriteTimeout = ac.writeTimeout
	cfg.IdleTimeout = ac.idleTimeout
	// Pick frame pacing for the requested rate at ~10 frames/second.
	cfg.FrameInterval = 100 * time.Millisecond
	cfg.FrameBytes = ac.rateBps / 8 / 10
	if cfg.FrameBytes < 64 {
		cfg.FrameBytes = 64
	}

	a := &app{}
	if ac.logPath != "" {
		f, err := os.Create(ac.logPath)
		if err != nil {
			return nil, err
		}
		a.logFile = f
		var ew wmslog.EntryWriter
		if ac.logBinary {
			ew = wmslog.NewBinaryWriter(f)
		} else {
			ew = wmslog.NewWriter(f)
		}
		a.logWriter = wmslog.NewSyncWriter(ew)
		cfg.Sink = a.logTransfer
	}

	srv, err := liveserver.Serve(ac.addr, cfg)
	if err != nil {
		if a.logFile != nil {
			a.logFile.Close()
		}
		return nil, err
	}
	a.srv = srv
	if ac.metricsAddr != "" {
		reg := telemetry.NewRegistry()
		reg.Set("conns_open", srv.OpenConns)
		reg.Set("conns_accepted", srv.AcceptedConns)
		reg.Set("conns_refused", srv.RefusedConns)
		reg.Set("transfers_active", srv.ActiveTransfers)
		reg.Set("transfers_served", srv.ServedTransfers)
		if a.logWriter != nil {
			reg.Set("log_entries", a.logWriter.Count)
		}
		ms, err := telemetry.Serve(ac.metricsAddr, reg)
		if err != nil {
			a.shutdown()
			return nil, err
		}
		a.metrics = ms
	}
	return a, nil
}

// logTransfer appends one completed transfer to the log. It is only
// wired as the sink when the log is configured, and the server drains
// every handler before shutdown closes the file, so the writer is
// always live here.
func (a *app) logTransfer(r liveserver.TransferRecord) {
	if err := a.logWriter.Write(liveserver.RecordEntry(r)); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserve: log:", err)
	}
	// Flush per entry: transfer completions are rare enough that
	// durability (ungraceful kills, tail -f) beats write batching.
	a.logWriter.Flush()
}

// loop prints periodic status until a signal arrives, then shuts down.
func (a *app) loop(interrupt <-chan os.Signal, statusEvery time.Duration, w io.Writer) error {
	ticker := time.NewTicker(statusEvery)
	defer ticker.Stop()
	for {
		select {
		case <-interrupt:
			fmt.Fprintln(w, "\nshutting down")
			return a.shutdown()
		case <-ticker.C:
			fmt.Fprintf(w, "active=%d served=%d refused=%d\n",
				a.srv.ActiveTransfers(), a.srv.ServedTransfers(), a.srv.RefusedConns())
		}
	}
}

// shutdown leaves the fleet first (so the redirector stops routing new
// transfers here), then stops the server — which drains the connection
// handlers, so every completed transfer has reached the sink and
// nothing logs concurrently anymore — then flushes and closes the log.
// Idempotent; the first error wins.
func (a *app) shutdown() error {
	a.closeOnce.Do(func() {
		if a.agent != nil {
			a.agent.Close()
		}
		if a.metrics != nil {
			a.metrics.Close()
		}
		a.closeErr = a.srv.Close()
		if a.logFile == nil {
			return
		}
		if err := a.logWriter.Flush(); err != nil && a.closeErr == nil {
			a.closeErr = err
		}
		if err := a.logFile.Close(); err != nil && a.closeErr == nil {
			a.closeErr = err
		}
	})
	return a.closeErr
}
