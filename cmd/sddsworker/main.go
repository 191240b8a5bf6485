// Command sddsworker executes shards of a sharded sweep coordinated by
// sddsd: it leases content-keyed shards over HTTP, simulates each
// request through the standard bounded session (compile cache and
// fault/timeout plumbing intact), journals finished requests so a crash
// loses at most the run being written, and streams the records back to
// the coordinator. Leases are renewed under a heartbeat; a worker that
// crashes, stalls, or partitions simply lets its lease expire — the
// coordinator requeues the shard, and the content-addressed store dedups
// any late double-completion.
//
//	sddsworker -coordinator http://127.0.0.1:8377 -name w1 -journal-dir /tmp/w1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sdds/internal/cliutil"
	"sdds/internal/harness"
	"sdds/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "sddsworker:", err)
		os.Exit(1)
	}
}

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sddsworker", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "sddsd base URL to lease shards from (required)")
		name        = fs.String("name", "", "worker name reported in leases and events (default: host:pid)")
		workers     = fs.Int("workers", 0, "concurrent cluster simulations (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 0, "per-run wall-clock deadline (0 = none)")
		journalDir  = fs.String("journal-dir", "", "directory for per-shard crash journals; a restarted worker resumes a re-leased shard from them")
		compile     = fs.String("compile-cache", "on", "compile-artifact cache: on, off, or a persistent JSONL store path")
		idleExit    = fs.Bool("idle-exit", true, "exit when the coordinator reports the sweep done (false: keep polling for the next sweep)")
	)
	var df cliutil.DiagFlags
	df.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return fmt.Errorf("-coordinator is required (the sddsd base URL)")
	}
	if !strings.Contains(*coordinator, "://") {
		*coordinator = "http://" + *coordinator
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	log, closeLog, err := df.NewLogger()
	if err != nil {
		return err
	}
	defer closeLog()
	cache, disabled, err := cliutil.OpenCompileCache(*compile)
	if err != nil {
		return err
	}
	if cache != nil && cache.Store() != nil {
		defer cache.Close()
	}
	rec, err := df.NewRecorder(log)
	if err != nil {
		return err
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return err
		}
	}

	sess := harness.NewSession(harness.SessionOptions{
		Workers:             *workers,
		RunTimeout:          *timeout,
		CompileCache:        cache,
		DisableCompileCache: disabled,
		Diag:                rec,
		Log:                 log,
	})
	w := &shard.Worker{
		API:          &shard.Client{BaseURL: *coordinator},
		Name:         *name,
		ExitWhenDone: *idleExit,
		JournalDir:   *journalDir,
		Log:          log,
		Exec: func(ctx context.Context, req harness.Request) (harness.RunRecord, error) {
			res, _, err := sess.RunRequest(ctx, req)
			if err != nil {
				return harness.RunRecord{}, err
			}
			return harness.NewRunRecord(res), nil
		},
	}
	fmt.Fprintf(os.Stderr, "sddsworker: %s leasing from %s\n", *name, *coordinator)
	start := time.Now() //sddsvet:ignore detflow -- wall-clock worker lifetime, not simulated time
	err = w.Run(ctx)
	simulated, hits := sess.Stats()
	fmt.Fprintf(os.Stderr, "sddsworker: %s exiting after %s (%d simulated, %d cache hits)\n",
		*name, time.Since(start).Round(time.Millisecond), simulated, hits) //sddsvet:ignore detflow -- wall-clock worker lifetime
	return err
}
