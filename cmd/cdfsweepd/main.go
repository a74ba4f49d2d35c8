// Command cdfsweepd is the fault-isolated sweep service: an HTTP/JSON
// server that accepts sweep jobs, shards their (config × kernel × seed)
// cases across a bounded pool of subprocess workers (`cdfsim -worker`),
// and persists every completed case to the crash-safe result cache, so a
// panicking or wedged simulation can never take down the server and a
// killed server resumes its queue on restart.
//
// Usage:
//
//	cdfsweepd -cache-dir .sweep
//	cdfsweepd -addr :8344 -workers 8 -retries 2
//	cdfsweepd -cache-dir .sweep -worker-chaos seed=1,workerkill=0.2
//
// API (see internal/sweepd for the full contract):
//
//	curl -XPOST localhost:8344/jobs -d '{"benchmarks":["astar"],"modes":["cdf"]}'
//	curl localhost:8344/jobs/j1
//	curl localhost:8344/jobs/j1/results?format=csv
//	curl localhost:8344/healthz
//
// SIGTERM and SIGINT drain gracefully: stop admitting jobs, let in-flight
// cases finish and persist, fsync the journal, exit 0. A job interrupted
// mid-sweep is requeued on the next start pointed at the same -cache-dir,
// and its finished cases are served from the cache without re-simulating
// — the restarted sweep's table is byte-identical to an uninterrupted
// one.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"cdf/internal/harness"
	"cdf/internal/sweepd"
	"cdf/internal/sweepstore"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8344", "HTTP listen address")
		cacheDir   = flag.String("cache-dir", ".sweep", "durable result cache + journal directory (the queue's persistence)")
		workers    = flag.Int("workers", 0, "subprocess worker pool size (0 = GOMAXPROCS)")
		workerCmd  = flag.String("worker-cmd", "", "worker command (default: this binary's sibling cdfsim, else cdfsim from PATH)")
		chaosSpec  = flag.String("worker-chaos", "", "deterministic fault injection in workers, e.g. seed=1,workerkill=0.2,hbstall=0.1,slow=1,slowfor=1s")
		retries    = flag.Int("retries", 2, "per-case retry budget for transient failures")
		hbTimeout  = flag.Duration("hb-timeout", sweepd.DefaultHeartbeatTimeout, "kill a worker silent for this long")
		maxQueue   = flag.Int("max-queue", sweepd.DefaultMaxQueue, "admission queue bound; beyond it submissions get 429")
		breakerN   = flag.Int("breaker", sweepstore.DefaultBreakerThreshold, "terminal failures before a case is quarantined")
		drainGrace = flag.Duration("drain-grace", 2*time.Minute, "how long a SIGTERM drain waits for in-flight cases")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)

	if *chaosSpec != "" {
		// Validate the spec here, not in each worker, so a typo fails the
		// server start instead of every dispatch.
		if _, err := harness.ParseChaos(*chaosSpec); err != nil {
			logger.Fatalf("cdfsweepd: %v", err)
		}
	}

	cmd := workerCommand(*workerCmd, *chaosSpec)
	logger.Printf("cdfsweepd: workers run: %v", cmd)

	store, err := sweepstore.Open(*cacheDir, true)
	if err != nil {
		logger.Fatalf("cdfsweepd: %v", err)
	}

	sup, err := sweepd.NewSupervisor(sweepd.SupervisorConfig{
		Cmd:              cmd,
		Workers:          *workers,
		HeartbeatTimeout: *hbTimeout,
		Retries:          *retries,
		Store:            store,
		Breaker:          sweepstore.NewBreaker(*breakerN),
		Logf:             logger.Printf,
	})
	if err != nil {
		logger.Fatalf("cdfsweepd: %v", err)
	}
	svc, err := sweepd.NewService(sweepd.ServiceConfig{
		Store:      store,
		Supervisor: sup,
		MaxQueue:   *maxQueue,
		Logf:       logger.Printf,
	})
	if err != nil {
		logger.Fatalf("cdfsweepd: %v", err)
	}
	svc.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("cdfsweepd: %v", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	// The smoke scripts grep this line for the bound address, so :0 works.
	fmt.Printf("cdfsweepd: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Printf("cdfsweepd: %v: draining (finish in-flight cases, park the rest)", sig)
	case err := <-errc:
		logger.Fatalf("cdfsweepd: %v", err)
	}

	dctx, dcancel := context.WithTimeout(context.Background(), *drainGrace)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		logger.Printf("cdfsweepd: %v", err)
	}
	sup.Close()
	// Refuse new connections, finish in-flight responses (streams end once
	// the current job is parked).
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
	}
	if err := store.Close(); err != nil {
		logger.Fatalf("cdfsweepd: close store: %v", err)
	}
	logger.Printf("cdfsweepd: drained cleanly")
}

// workerCommand resolves the worker argv: an explicit -worker-cmd, else
// the cdfsim next to this binary, else cdfsim from PATH.
func workerCommand(override, chaos string) []string {
	var cmd []string
	if override != "" {
		cmd = []string{override}
	} else {
		self, err := os.Executable()
		if err == nil {
			sibling := filepath.Join(filepath.Dir(self), "cdfsim")
			if _, serr := os.Stat(sibling); serr == nil {
				cmd = []string{sibling}
			}
		}
		if cmd == nil {
			cmd = []string{"cdfsim"}
		}
	}
	cmd = append(cmd, "-worker")
	if chaos != "" {
		cmd = append(cmd, "-chaos", chaos)
	}
	return cmd
}
