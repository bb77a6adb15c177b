// Command nosqlsimd hosts autonosql scenarios and suites as jobs behind an
// HTTP/JSON API: submit work, drive its lifecycle (start/pause/resume/
// cancel), stream metric windows as the simulation closes them, and fetch
// the aggregated report once it finishes.
//
//	nosqlsimd -addr :7070
//
//	# submit a scenario and watch it run
//	curl -s localhost:7070/api/jobs -d '{"autostart":true,"scenario":{"Duration":60000000000}}'
//	curl -sN localhost:7070/api/jobs/job-0001/stream
//	curl -s  localhost:7070/api/jobs/job-0001/report
//	curl -s  localhost:7070/api/jobs/job-0001/meta
//
// Scenario and suite-base specs decode onto DefaultScenarioSpec, so a
// submission states only what it overrides; durations are nanosecond
// integers. Reports are byte-identical to offline runs of the same spec —
// the daemon observes simulations, it never perturbs them. Run metadata
// (wall-clock elapsed, parallelism, throughput) deliberately lives in the
// /meta envelope, not the report, so report exports stay determinism-stable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autonosql/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	retain := flag.Int("retain-windows", 4096, "metric windows, and separately op-trace spans, retained per job for stream replay (0 = unbounded)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nosqlsimd: unexpected arguments %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	srv := serve.NewServer(serve.Options{RetainWindows: *retain})
	// No WriteTimeout: /stream and /spans responses live as long as the job.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("nosqlsimd: listen: %v", err)
	}
	log.Printf("nosqlsimd: serving on http://%s", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-srv.ShutdownRequested():
		log.Printf("nosqlsimd: shutdown requested over the API")
	case s := <-sig:
		log.Printf("nosqlsimd: received %v", s)
	case err := <-errCh:
		log.Fatalf("nosqlsimd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("nosqlsimd: graceful shutdown: %v", err)
	}
	log.Printf("nosqlsimd: stopped")
}
