// Command gqbed is the GQBE query-serving daemon: it loads a knowledge graph
// once, preprocesses it in memory (the paper's offline phase), and serves
// query-by-example requests over an HTTP JSON API.
//
// Usage:
//
//	gqbed -graph kg.tsv [-addr :8080] [-max-concurrent 8] [-cache-entries 1024]
//	      [-snapshot kg.snap] [-snapshot-write] [-snapshot-mmap]
//	      [-trace] [-slow-query-ms 0]
//
// The complete flag reference and the /statz field glossary live in
// docs/OPERATIONS.md.
//
// Startup: with -snapshot pointing at an existing file, the daemon restores
// the preprocessed engine from the binary snapshot (one sequential read, no
// triple parsing or index construction); otherwise it parses -graph and
// builds the store, and with -snapshot-write also saves the result to
// -snapshot for the next restart.
// -snapshot-mmap opens the snapshot memory-mapped zero-copy instead: the
// engine's columns borrow the mapping, startup is O(sections), and the data
// pages are shared with the OS page cache across processes; /statz reports
// mapped: true with the mapping size. Mapping failures degrade to the heap
// loader, then to the -graph rebuild.
//
// Endpoints:
//
//	POST /v1/query          {"tuple":["Jerry Yang","Yahoo!"],"k":10,"timeout_ms":500}
//	                        {"tuples":[["Jerry Yang","Yahoo!"],["Sergey Brin","Google"]]}
//	POST /v1/query:explain  one query's full breakdown: span tree, MQG,
//	                        lattice summary, per-node evaluation table
//	GET  /v1/entity/{name}  entity existence check
//	GET  /healthz           liveness + graph shape + engine generation
//	GET  /statz             serving metrics (QPS, latency percentiles, cache)
//	GET  /metrics           Prometheus text exposition (counters + histograms)
//	POST /admin/reload      hot-swap the engine from -snapshot/-graph (SIGHUP
//	                        does the same); a corrupt candidate is rejected
//	                        and the serving engine retained
//
// The daemon sheds load with 429 once all workers are busy, answers repeated
// queries from an LRU result cache, coalesces concurrent identical queries
// into one engine search, and cancels any query that exceeds its deadline.
// SIGINT/SIGTERM drain in-flight requests before exit.
//
// Observability: -slow-query-ms N logs a structured record (with the full
// per-stage span breakdown) for every request slower than N milliseconds;
// -trace traces every query and logs each at debug level. Both feed the same
// span machinery /v1/query:explain uses; neither changes any answer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gqbe"
	"gqbe/internal/fault"
	"gqbe/internal/server"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "path to the knowledge graph (TSV triples), required")
		addr      = flag.String("addr", ":8080", "listen address")

		maxConcurrent = flag.Int("max-concurrent", 8, "max simultaneous lattice searches")
		queueWait     = flag.Duration("queue-wait", time.Second, "max wait for a worker slot before shedding with 429")
		timeout       = flag.Duration("timeout", 10*time.Second, "default per-query deadline")
		maxTimeout    = flag.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
		cacheEntries  = flag.Int("cache-entries", 1024, "result cache capacity in entries (negative disables)")
		cacheShards   = flag.Int("cache-shards", 16, "result cache shard count")
		cacheMinLat   = flag.Duration("cache-min-latency", time.Millisecond, "cache admission floor: don't cache results whose search was faster than this (negative caches everything)")
		pprofAddr     = flag.String("pprof-addr", "", "optional address (e.g. 127.0.0.1:6060) serving net/http/pprof on a separate listener; empty disables")
		trace         = flag.Bool("trace", false, "trace every query (span tree + node evaluations) and log each at debug level; answers are unchanged")
		slowQueryMS   = flag.Int("slow-query-ms", 0, "log a structured slow-query record (full span breakdown) for requests slower than this many milliseconds; 0 disables")

		shardIndex    = flag.Int("shard-index", 0, "this daemon's answer-space shard index in a fleet of -shard-count (see cmd/kgshard; auto-adopted from shard snapshots)")
		shardCount    = flag.Int("shard-count", 0, "fleet shard count; 0/1 = unsharded. Each shard runs the full search and keeps only the answers it owns; a gqberouter in front merges them bit-identically")
		snapshotPath  = flag.String("snapshot", "", "binary engine snapshot path: loaded instead of -graph when it exists")
		snapshotWrite = flag.Bool("snapshot-write", false, "after building from -graph, write the engine snapshot to -snapshot")
		snapshotMmap  = flag.Bool("snapshot-mmap", false, "open -snapshot memory-mapped zero-copy (O(sections) startup, pages shared with the page cache) instead of decoding it onto the heap; falls back to the heap loader, then -graph, if mapping fails")

		faultSpec    = flag.String("fault", "", "fault-injection spec, e.g. 'exec.eval.panic:p=0.01,seed=7;snapio.read.flip:every=100' (testing/chaos only; empty disables)")
		staleServe   = flag.Bool("stale-serve", false, "serve retained cache entries (labeled stale, with an Age header) when live computation fails with a server-side error")
		staleTTL     = flag.Duration("stale-ttl", 0, "result-cache freshness horizon: older entries recompute but stay eligible for stale serving (0 = 1m default, negative = never stale)")
		brownoutQ    = flag.Int("brownout-queue", 0, "admission queue depth that engages brownout (evaluation-capped searches labeled browned_out); 0 disables")
		brownoutEval = flag.Int("brownout-max-evaluations", 0, "lattice-evaluation cap under brownout (0 = default 512)")
	)
	flag.Parse()

	if *faultSpec != "" {
		cfg, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gqbed: -fault: %v\n", err)
			os.Exit(2)
		}
		fault.Enable(cfg)
		log.Printf("gqbed: FAULT INJECTION ARMED: %s", *faultSpec)
	}

	if *graphPath == "" && *snapshotPath == "" {
		fmt.Fprintln(os.Stderr, "gqbed: -graph (or -snapshot) is required")
		flag.Usage()
		os.Exit(2)
	}
	if *snapshotWrite && *snapshotPath == "" {
		fmt.Fprintln(os.Stderr, "gqbed: -snapshot-write needs -snapshot")
		flag.Usage()
		os.Exit(2)
	}

	eng, err := loadEngine(*graphPath, *snapshotPath, *snapshotWrite, *snapshotMmap)
	if err != nil {
		log.Fatalf("gqbed: %v", err)
	}
	eng, err = applyShard(eng, *shardIndex, *shardCount)
	if err != nil {
		log.Fatalf("gqbed: %v", err)
	}
	info := eng.BuildInfo()
	how := "built"
	if info.FromSnapshot {
		how = "snapshot-loaded"
	}
	if info.Mapped {
		how = fmt.Sprintf("snapshot-mapped (%d bytes zero-copy)", info.MappedBytes)
	}
	log.Printf("gqbed: %d entities, %d facts, %d predicates %s in %v",
		eng.NumEntities(), eng.NumFacts(), eng.NumPredicates(), how, info.BuildTime.Round(time.Millisecond))
	if i, n := eng.Shard(); n > 1 {
		log.Printf("gqbed: serving answer-space shard %d of %d", i, n)
	}

	// The structured logger feeds slow-query and trace records; -trace drops
	// the level to debug so per-query records are visible.
	logLevel := slog.LevelInfo
	if *trace {
		logLevel = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))

	cfg := server.Config{
		MaxConcurrent:   *maxConcurrent,
		MaxQueueWait:    *queueWait,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		CacheEntries:    *cacheEntries,
		CacheShards:     *cacheShards,
		CacheMinLatency: *cacheMinLat,
		Trace:           *trace,
		SlowQuery:       time.Duration(*slowQueryMS) * time.Millisecond,
		Logger:          logger,
		// Hot reload rebuilds from the same sources the boot load used
		// (snapshot preferred, graph fallback), so SIGHUP / POST
		// /admin/reload picks up a newly written snapshot or graph file
		// without a restart. A corrupt candidate is rejected by the loader
		// and the serving engine stays untouched.
		Reload: func() (*gqbe.Engine, error) {
			e, err := loadEngine(*graphPath, *snapshotPath, false, *snapshotMmap)
			if err != nil {
				return nil, err
			}
			// The reloaded engine must keep serving the same answer slice:
			// a mismatched shard snapshot is rejected and the old engine
			// stays, exactly like a corrupt one.
			return applyShard(e, *shardIndex, *shardCount)
		},
		StaleServe:             *staleServe,
		StaleTTL:               *staleTTL,
		BrownoutQueue:          *brownoutQ,
		BrownoutMaxEvaluations: *brownoutEval,
	}.WithDefaults()
	srv := server.New(eng, cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		// Bodies are at most ~1MB (the handler enforces it), so a stalled
		// or trickled upload must not pin a goroutine past this.
		ReadTimeout: 30 * time.Second,
		// The write window must cover the longest allowed request — queue
		// wait plus query deadline — and the response itself; a finite
		// bound keeps slow-reading clients from holding connections (and
		// their handler goroutines) forever.
		WriteTimeout: cfg.MaxQueueWait + cfg.MaxTimeout + 30*time.Second,
		IdleTimeout:  60 * time.Second,
	}

	// The profiling endpoints get their own mux and listener so they are
	// never exposed on the serving address: perf investigations bind them to
	// loopback while the query API faces the world.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("gqbed: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				log.Printf("gqbed: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGHUP triggers a hot reload (same effect as POST /admin/reload):
	// operators can swap in a freshly written snapshot without dropping a
	// single in-flight request. A failed reload only logs — the daemon keeps
	// serving the engine it has.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			log.Printf("gqbed: SIGHUP: hot reload requested")
			if gen, err := srv.Reload(); err != nil {
				log.Printf("gqbed: hot reload failed: %v", err)
			} else {
				log.Printf("gqbed: hot reload done, generation %d", gen)
			}
		}
	}()

	errc := make(chan error, 1)
	go func() {
		log.Printf("gqbed: serving on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("gqbed: %v", err)
	case <-ctx.Done():
	}

	log.Printf("gqbed: shutting down, draining in-flight requests")
	// The drain window must cover the longest request the server itself
	// admits: full queue wait plus the maximum query deadline.
	shutdownCtx, cancel := context.WithTimeout(context.Background(),
		cfg.MaxQueueWait+cfg.MaxTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("gqbed: shutdown: %v", err)
	}
	log.Printf("gqbed: bye")
}

// applyShard reconciles the -shard-index/-shard-count flags with any shard
// identity the engine already carries (a v3 snapshot from cmd/kgshard
// records one). Flags absent: the snapshot identity — or none — stands.
// Flags present: they must agree with a recorded identity; serving a
// different slice than the file was partitioned for would silently drop
// answers fleet-wide, so a mismatch refuses to start rather than guess.
func applyShard(eng *gqbe.Engine, index, count int) (*gqbe.Engine, error) {
	if count <= 1 {
		return eng, nil
	}
	if si, sc := eng.Shard(); sc > 1 && (si != index || sc != count) {
		return nil, fmt.Errorf("snapshot is shard %d/%d but flags say %d/%d", si, sc, index, count)
	}
	return eng.WithShard(index, count)
}

// loadEngine resolves the startup path: an existing snapshot wins; otherwise
// the graph is parsed and the store built, with the result optionally
// snapshotted for the next restart. A corrupt or version-skewed snapshot
// falls back to the graph build (and, with -snapshot-write, replaces the
// bad file) instead of refusing to start.
// With mmapOpen the snapshot is memory-mapped zero-copy first; a map
// failure (unsupported platform, injected fault) degrades to the heap
// loader before the graph rebuild, so the flag can never make a startable
// daemon unstartable.
func loadEngine(graphPath, snapshotPath string, snapshotWrite, mmapOpen bool) (*gqbe.Engine, error) {
	if snapshotPath != "" {
		if _, err := os.Stat(snapshotPath); err == nil {
			if mmapOpen {
				log.Printf("gqbed: mapping snapshot %s", snapshotPath)
				eng, err := gqbe.OpenSnapshotMapped(snapshotPath)
				if err == nil {
					return eng, nil
				}
				log.Printf("gqbed: snapshot map failed (%v); falling back to heap load", err)
			}
			log.Printf("gqbed: loading snapshot %s", snapshotPath)
			eng, err := gqbe.LoadSnapshotFile(snapshotPath)
			if err == nil {
				return eng, nil
			}
			if graphPath == "" {
				return nil, err
			}
			log.Printf("gqbed: snapshot unusable (%v); rebuilding from %s", err, graphPath)
		} else if graphPath == "" {
			return nil, fmt.Errorf("snapshot %s: %w", snapshotPath, err)
		} else if !os.IsNotExist(err) {
			// A present-but-unstattable snapshot (permissions, I/O error)
			// must not silently turn every restart into a slow rebuild.
			log.Printf("gqbed: snapshot %s unavailable (%v); rebuilding from %s", snapshotPath, err, graphPath)
		}
	}
	log.Printf("gqbed: loading %s", graphPath)
	eng, err := gqbe.LoadFile(graphPath)
	if err != nil {
		return nil, err
	}
	if snapshotWrite {
		start := time.Now()
		if err := eng.WriteSnapshotFile(snapshotPath); err != nil {
			// The engine is healthy; a failed snapshot write must not keep
			// the daemon down.
			log.Printf("gqbed: snapshot write failed: %v", err)
		} else {
			log.Printf("gqbed: snapshot written to %s in %v", snapshotPath, time.Since(start).Round(time.Millisecond))
		}
	}
	return eng, nil
}
