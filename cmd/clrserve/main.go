// Command clrserve is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts workload/sweep specs (the versioned
// sim.Spec JSON envelope), runs them on a shared bounded engine pool, shows
// their shard progress, and serves the canonical RunReport/SweepReport
// documents back. SERVING.md documents the API, job lifecycle and
// admission semantics.
//
//	clrserve -addr :8080 -checkpoint /var/lib/clrdram
//	clrserve -smoke                     # in-process end-to-end determinism gate
//
// The daemon drains gracefully on SIGINT/SIGTERM: admission stops
// (503), running sweeps keep checkpointing their shards, and when the
// drain timeout passes they are interrupted. Restart with the same
// -checkpoint and resubmit: the completed shards reload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"clrdram/internal/cli"
	"clrdram/internal/engine"
	"clrdram/internal/serve"
	"clrdram/internal/sim"
	"clrdram/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		ckptDir  = flag.String("checkpoint", "", "checkpoint directory: sweep shards (figure rows and alone baselines) persist here across restarts")
		workers  = flag.Int("workers", 0, "total simulation fan-out across all jobs (0 = GOMAXPROCS)")
		maxJobs  = flag.Int("max-jobs", 2, "jobs simulated concurrently (each fans out on the shared pool)")
		queueCap = flag.Int("queue", 64, "admission backlog bound; overflow is rejected with 429")
		cacheN   = flag.Int("cache", 256, "completed jobs retained for result-cache hits")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs before checkpoint-interrupting them")

		smoke  = flag.Bool("smoke", false, "run the in-process end-to-end determinism gate and exit")
		instrs = flag.Uint64("instructions", 20_000, "smoke: instructions per core for the generated spec")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "clrserve: ", log.LstdFlags)

	cfg := serve.Config{
		Workers:       *workers,
		MaxConcurrent: *maxJobs,
		MaxQueued:     *queueCap,
		CacheEntries:  *cacheN,
		Logf:          logger.Printf,
	}
	if *ckptDir != "" {
		store, err := engine.NewStore(*ckptDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = store
	}

	if *smoke {
		if err := runSmoke(cfg, *instrs, logger); err != nil {
			fatal(err)
		}
		fmt.Println("serve-smoke: PASS")
		return
	}
	if err := runDaemon(cfg, *addr, *drainT, logger); err != nil {
		fatal(err)
	}
}

// runDaemon serves until a signal arrives, then drains gracefully.
func runDaemon(cfg serve.Config, addr string, drainTimeout time.Duration, logger *log.Logger) error {
	m := serve.NewManager(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(m)}

	ctx, _, stop := cli.SignalContext(context.Background())
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Printf("listening on %s (workers=%d, max-jobs=%d, queue=%d)",
		ln.Addr(), cfg.Workers, cfg.MaxConcurrent, cfg.MaxQueued)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: close the listener, stop admitting, give running
	// jobs until the timeout to finish and flush reports, then interrupt
	// them (their completed shards stay checkpointed).
	logger.Printf("signal received; draining (timeout %s)", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(dctx)
	if err := m.Drain(dctx); err != nil {
		logger.Printf("drain timed out; running jobs interrupted (completed shards stay checkpointed)")
	} else {
		logger.Printf("drained cleanly")
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	return nil
}

// smokeSpec is the tiny Fig12 sweep the smoke gate submits. The
// fast-forward mode is pinned explicitly so the byte-identity check covers
// the planner end to end.
func smokeSpec(instrs uint64) (sim.Spec, serve.RunOptions) {
	return sim.Fig12Spec(workload.All()[:2]), serve.RunOptions{
		Seed:               7,
		TargetInstructions: instrs,
		FastForward:        "on",
	}
}

// runSmoke is the end-to-end determinism gate behind make serve-smoke:
// start a daemon on a random port, submit a tiny Fig12 sweep over HTTP,
// poll it to completion, fetch the report, and byte-diff it against the
// canonical report of a direct sim.Run with the same spec and options.
func runSmoke(cfg serve.Config, instrs uint64, logger *log.Logger) error {
	m := serve.NewManager(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: serve.NewServer(m)}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	logger.Printf("smoke: daemon on %s", base)

	spec, opts := smokeSpec(instrs)
	sb, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.SubmitRequest{Spec: sb, Options: opts})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return err
	}
	logger.Printf("smoke: submitted job %s", sub.ID)

	deadline := time.Now().Add(5 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State == serve.StateFailed {
			return fmt.Errorf("smoke: job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: job stuck in %s", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}

	resp, err = http.Get(base + "/v1/jobs/" + sub.ID + "/report")
	if err != nil {
		return err
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: report fetch: %d: %s", resp.StatusCode, served)
	}

	simOpts := opts.SimOptions()
	out, err := sim.Run(context.Background(), spec, simOpts)
	if err != nil {
		return err
	}
	direct, err := serve.ReportBytes(spec, out, simOpts)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, direct) {
		return fmt.Errorf("smoke: served report (%d bytes) diverges from direct run (%d bytes)",
			len(served), len(direct))
	}
	logger.Printf("smoke: served report byte-identical to direct run (%d bytes)", len(served))

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	return m.Drain(dctx)
}

func fatal(err error) {
	cli.Exit("clrserve", err, nil)
}
