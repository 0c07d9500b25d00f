// Command gqberouter is the fleet front end for sharded gqbed deployments:
// it fans each query out to every shard daemon, merges the per-shard ranked
// answers deterministically (score desc, tie asc — bit-identical to one
// unsharded daemon; see internal/router), and serves the same HTTP surface
// as gqbed itself, so clients and dashboards need no changes when a
// deployment grows from one daemon to a fleet.
//
// Usage:
//
//	gqberouter -shards http://10.0.0.1:8080,http://10.0.0.2:8080 [-addr :8090]
//	gqberouter -shards ... -fleet fleet/fleet.json   # cross-check the manifest
//
// -shards lists the shard daemons' base URLs in shard-index order — the
// order must match the fleet manifest cmd/kgshard wrote, because answer
// ownership is by shard index. With -fleet the router loads the manifest and
// refuses to start when the shard count disagrees, catching the most common
// deployment mistake (a router pointed at half a fleet would silently drop
// the other half's answers).
//
// Degraded mode: a slow or dead shard yields a 200 with "partial": true and
// the missing shards named — never a 500. The router keeps no cache: caching,
// coalescing and stale serving (gqbed -stale-serve) happen on the shards, and
// the merged response carries their labels ("stale" and the Age header when
// any shard served stale; "cached" and "coalesced" when every shard did).
//
// Endpoints: POST /v1/query, /v1/query:explain (both merged across the
// fleet), GET /v1/entity/{name} (proxied), GET /healthz (fleet
// probe), GET /statz (fleet counters + per-shard latency), GET /metrics
// (gqbe_router_* Prometheus families).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gqbe/internal/fleet"
	"gqbe/internal/router"
)

func main() {
	var (
		shards = flag.String("shards", "", "comma-separated shard base URLs in shard-index order (required)")
		addr   = flag.String("addr", ":8090", "listen address")
		fleetP = flag.String("fleet", "", "optional fleet.json manifest (from cmd/kgshard) to cross-check the shard count and scheme against")

		timeout    = flag.Duration("timeout", 10*time.Second, "default per-query deadline")
		maxTimeout = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		queueWait  = flag.Duration("queue-wait", time.Second, "shard-side admission queue bound (sizes the per-shard call budget)")
		retries    = flag.Int("retries", 1, "transport-error retries per shard call (negative disables)")
	)
	flag.Parse()

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "gqberouter: -shards is required")
		flag.Usage()
		os.Exit(2)
	}
	urls := strings.Split(*shards, ",")
	for i := range urls {
		urls[i] = strings.TrimSpace(urls[i])
	}
	if *fleetP != "" {
		m, err := fleet.Load(*fleetP)
		if err != nil {
			log.Fatalf("gqberouter: %v", err)
		}
		if len(m.Shards) != len(urls) {
			log.Fatalf("gqberouter: manifest %s describes %d shards but -shards lists %d; "+
				"a router fronting part of a fleet would silently drop the rest's answers",
				*fleetP, len(m.Shards), len(urls))
		}
		log.Printf("gqberouter: manifest %s ok: %d shards, scheme %s", *fleetP, len(m.Shards), m.Scheme)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	rt, err := router.New(router.Config{
		Shards:         urls,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxQueueWait:   *queueWait,
		Retries:        *retries,
		Logger:         logger,
	})
	if err != nil {
		log.Fatalf("gqberouter: %v", err)
	}
	log.Printf("gqberouter: fronting %d shard(s)", rt.Shards())

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// The write window covers the longest allowed fan-out — queue wait
		// plus maximum deadline plus the shard-call slack — and the merged
		// response itself.
		WriteTimeout: *queueWait + *maxTimeout + 30*time.Second,
		IdleTimeout:  60 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("gqberouter: serving on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("gqberouter: %v", err)
	case <-ctx.Done():
	}

	log.Printf("gqberouter: shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(),
		*queueWait+*maxTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("gqberouter: shutdown: %v", err)
	}
	log.Printf("gqberouter: bye")
}
