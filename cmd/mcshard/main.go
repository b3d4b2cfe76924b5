// Command mcshard is a networked shard scoring worker: one process owning
// one shard of the pair-model fleet. An mcdetect coordinator started with
// -shard-workers dials the address printed on the first stdout line
// (LISTEN <addr>), streams the shard's trained models plus one row frame
// per monitoring step over that connection, and reads the shard's outcome
// set for each row back on it. The worker only listens: it never dials
// the coordinator, and both binaries must come from the same build.
//
// The worker checkpoints its models and applied sequence under
// -data-dir/shard-<k>/ on the coordinator-announced cadence, so a
// SIGKILLed worker restarted with the same -data-dir and address rejoins
// the fabric with the merged Q^a/Q trajectory unchanged: the coordinator
// replays the rows since the checkpoint from its ring and drops the
// answers it had already merged.
//
// Usage:
//
//	mcshard -data-dir /var/lib/mcorr/worker0 [-listen 127.0.0.1:9440] [-ops-addr :9101]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"mcorr/internal/obs"
	"mcorr/internal/shardnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mcshard: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "control listen address the coordinator dials (0 picks a free port)")
		dataDir   = flag.String("data-dir", "", "checkpoint root; shard state persists under data-dir/shard-<k>/ (required)")
		ckptEvery = flag.Int("checkpoint-every", 0, "override the coordinator-announced checkpoint cadence in rows (0 = follow the coordinator)")
		opsAddr   = flag.String("ops-addr", "", "serve ops endpoints (/metrics, /healthz, /statusz, /debug/pprof) on this address")
	)
	flag.Parse()
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	if *opsAddr != "" {
		ops, err := obs.ServeOps(*opsAddr)
		if err != nil {
			return err
		}
		defer ops.Close()
		log.Printf("ops server on http://%s", ops.Addr())
	}

	w, err := shardnet.ListenWorker(*listen, shardnet.WorkerConfig{
		DataDir:         *dataDir,
		CheckpointEvery: *ckptEvery,
		Logger:          obs.NewLogger(os.Stderr),
	})
	if err != nil {
		return err
	}
	// The first stdout line is machine-readable so orchestration (and the
	// crash-recovery test harness) can discover a :0-assigned port.
	fmt.Printf("LISTEN %s\n", w.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		w.Close()
	}()
	return w.Serve()
}
