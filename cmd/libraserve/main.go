// Command libraserve exposes the LIBRA simulator as an HTTP service:
// simulation-as-a-service over the same experiments.Runner singleflight and
// persistent result store the CLI drivers use, plus the service-grade parts —
// a bounded admission queue with 429 backpressure, per-request deadlines,
// context cancellation down to the simulator's frame boundaries, and a
// graceful SIGTERM drain.
//
// Endpoints:
//
//	POST /v1/run          configuration + benchmark + frame window → GameRun JSON
//	POST /v1/run?trace=1  same, streaming Chrome trace-event JSON (needs -trace)
//	GET  /v1/experiments  the experiment registry ids
//	GET  /v1/healthz      liveness
//	GET  /v1/stats        store hits/misses, queue depth, in-flight sims
//
// Usage:
//
//	libraserve -addr 127.0.0.1:8080 -result-dir ~/.libra
//	libraserve -addr 127.0.0.1:0 -addr-file /tmp/libra.addr   # test harnesses
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

func main() {
	cli := experiments.CLI{Name: "libraserve", P: experiments.DefaultParams()}
	cli.RegisterServiceFlags(flag.CommandLine)
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile    = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts binding port 0)")
		maxInFlight = flag.Int("max-inflight", experiments.DefaultJobs(), "concurrent simulations before requests queue; each simulation's render farm gets the CPUs they leave idle")
		maxQueue    = flag.Int("max-queue", 64, "queued requests before /v1/run answers 429")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request simulation deadline (0 = none); expiry aborts at the next frame boundary with 504")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT before in-flight simulations are aborted at their next frame boundary")
		trace       = flag.Bool("trace", false, "allow POST /v1/run?trace=1 to stream Chrome trace-event JSON")
	)
	cli.ParseCommandLine()
	logger := log.New(os.Stderr, "libraserve: ", log.LstdFlags)

	// The server's base context is NOT the signal context: SIGTERM must drain
	// gracefully first, and only the drain-budget expiry aborts simulations.
	srv, err := serve.NewServer(context.Background(), serve.Config{
		ResultDir:      cli.ResultDir,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
		EnableTrace:    *trace,
		Log:            logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}
	logger.Printf("listening on %s (inflight=%d queue=%d store=%q)",
		resolved, *maxInFlight, *maxQueue, cli.ResultDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil {
			logger.Fatal(err)
		}
		return
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Printf("draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		// Shutdown already triggered the hard stop: in-flight simulations
		// abort at their next frame boundary; give the handlers a moment to
		// answer their 503s.
		logger.Printf("drain budget exceeded, aborting in-flight simulations: %v", err)
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		if err := srv.Shutdown(hctx); err != nil {
			logger.Fatalf("hard stop failed: %v", err)
		}
	}
	if err := <-serveErr; err != nil {
		logger.Fatal(err)
	}
	st := srv.StatsSnapshot()
	fmt.Fprintf(os.Stderr, "libraserve: drained; sims=%d admitted=%d rejected=%d\n",
		st.Sims, st.Admission.Admitted, st.Admission.Rejected)
}
