// Command graphnerd is the long-lived GraphNER tagging service: it loads
// one frozen artifact (written by `graphner freeze`), answers concurrent
// tagging requests from a bounded queue with a fixed set of workers,
// enforces per-request deadlines with graceful shedding, and optionally
// folds served traffic back into the similarity graph on a background
// cadence.
//
//	graphnerd -artifact artifact.gna [-addr :8080] [-line-addr :8081]
//	          [-workers N] [-deadline 1s] [-queue N] [-cache 4096]
//	          [-stream] [-stream-batch 256]
//
// HTTP endpoints (on -addr): POST /tag (JSON {"sentences": [...],
// "deadline_ms": 0}), GET /healthz, GET /statusz. The line protocol (on
// -line-addr, disabled when empty) answers one raw sentence per line
// with its space-separated BIO tags, or "ERR <message>".
//
// Shutdown: SIGINT/SIGTERM stop the listeners, answer every request
// still queued, and refuse new ones with a closed error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/graphner"
	"repro/internal/serving"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphnerd:", err)
		os.Exit(1)
	}
}

func run() error {
	artifactPath := flag.String("artifact", "", "frozen artifact file (required; see `graphner freeze`)")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	lineAddr := flag.String("line-addr", "", "line-protocol listen address (disabled when empty)")
	workers := flag.Int("workers", 0, "request workers (0 = GOMAXPROCS)")
	deadline := flag.Duration("deadline", time.Second, "default per-request deadline (0 = none)")
	queue := flag.Int("queue", 0, "request queue depth (0 = 160×workers)")
	cache := flag.Int("cache", 4096, "compiled-sentence cache entries per worker")
	stream := flag.Bool("stream", false, "fold served traffic back into the similarity graph")
	streamBatch := flag.Int("stream-batch", 256, "with -stream: sentences per background fold-in")
	flag.Parse()
	if *artifactPath == "" {
		flag.Usage()
		return fmt.Errorf("-artifact is required")
	}

	f, err := os.Open(*artifactPath)
	if err != nil {
		return err
	}
	t0 := time.Now()
	art, err := graphner.ReadArtifact(f)
	f.Close() // lint:checked errdrop: read-only artifact handle; the decode already validated the stream
	if err != nil {
		return err
	}
	g := art.Graph()
	fmt.Printf("loaded %s in %v: %d vertices / %d edges, %d features, sha256 %s\n",
		*artifactPath, time.Since(t0).Round(time.Millisecond),
		g.NumVertices(), g.NumEdges(), art.Model().NumFeatures, art.Checksum())

	cfg := serving.Config{
		Workers:    *workers,
		Deadline:   *deadline,
		QueueDepth: *queue,
		CacheCap:   *cache,
	}
	if *stream {
		cfg.Stream = &serving.StreamConfig{BatchSize: *streamBatch}
		fmt.Println("stream mode: running initial transductive pass...")
	}
	srv, err := serving.NewServer(art, cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			httpErr <- err
		}
	}()
	rc := srv.Config()
	fmt.Printf("serving HTTP on %s with %d workers, queue depth %d\n", *addr, rc.Workers, rc.QueueDepth)

	var lineLn net.Listener
	lineErr := make(chan error, 1)
	if *lineAddr != "" {
		lineLn, err = net.Listen("tcp", *lineAddr)
		if err != nil {
			return err
		}
		go func() {
			if err := srv.ServeLine(lineLn); err != nil {
				lineErr <- err
			}
		}()
		fmt.Printf("serving line protocol on %s\n", *lineAddr)
	}

	select {
	case <-ctx.Done():
		fmt.Println("shutting down...")
	case err := <-httpErr:
		return err
	case err := <-lineErr:
		return err
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "graphnerd: http shutdown:", err)
	}
	if lineLn != nil {
		lineLn.Close() // lint:checked errdrop: process shutdown; nothing is left to surface a close error to
	}
	srv.Close()
	st := srv.Stats()
	fmt.Printf("served %d requests (%d shed, %d overloaded, %d fold-ins)\n",
		st.Served, st.Shed, st.Overloaded, st.Folds)
	return nil
}
