// Command replicad is the placement daemon: it serves the whole
// solver registry over HTTP/JSON with a canonical-hash result cache
// in front of the solvers (see internal/service and DESIGN.md).
//
// Usage:
//
//	replicad -addr :8080 -cache 1024 -job-workers 2
//
// Endpoints: POST /v2/solve, POST /v2/batch, GET /v2/jobs/{id},
// GET /v2/jobs/{id}/proof/{task}, GET /v2/solvers (full capability
// documents), the stateful /v2/instances session endpoints (PUT,
// POST …/mutate, GET …/solution, DELETE), GET /healthz and
// GET /metrics. The daemon shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"replicatree/internal/service"
	"replicatree/internal/solver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replicad:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replicad", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", service.DefaultCacheSize, "result cache capacity in entries (0 disables caching)")
	jobWorkers := fs.Int("job-workers", 2, "concurrently running batch jobs")
	jobQueue := fs.Int("job-queue", 64, "queued batch jobs before /v2/batch returns 503")
	maxInstances := fs.Int("max-instances", service.DefaultMaxInstances, "live instance sessions before LRU eviction")
	instanceTTL := fs.Duration("instance-ttl", service.DefaultInstanceTTL, "idle lifetime of an instance session")
	drain := fs.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
	withPprof := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in: profiles reveal internals, never enable on untrusted networks)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := service.New(service.Options{
		CacheSize:    *cacheSize,
		JobWorkers:   *jobWorkers,
		JobQueue:     *jobQueue,
		MaxInstances: *maxInstances,
		InstanceTTL:  *instanceTTL,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replicad: listening on http://%s (%d solvers, cache=%d)\n",
		ln.Addr(), len(solver.List()), *cacheSize)

	handler := http.Handler(srv)
	if *withPprof {
		// The profiling handlers are mounted on an outer mux so the
		// service mux (and its /metrics counters) never sees them.
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(stdout, "replicad: pprof enabled at /debug/pprof/")
	}

	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "replicad: shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return err
	}
	if err := <-errc; err != http.ErrServerClosed {
		return err
	}
	return nil
}
