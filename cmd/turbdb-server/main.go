// Command turbdb-server runs one database node of an analysis cluster: it
// loads the node's shard from a turbdb-gen deployment directory and serves
// the node API (threshold / PDF / top-k evaluation, halo-atom fetches,
// cache control) over HTTP.
//
// Usage (node 0 of a 2-node deployment):
//
//	turbdb-server -data ./deploy -node 0 -addr :7070 \
//	    -peers http://127.0.0.1:7070,http://127.0.0.1:7071 -cache
//
// -peers lists ALL node URLs in node order (including this node, which is
// skipped); peers supply the halo band for derived-field kernels. A request
// whose band cannot be fetched fails; the mediator re-routes or drops it.
//
// -replica-shards lists extra shard indexes this node holds as replicas
// (loaded from the same deployment directory), e.g. node 2 of a k=2 ring
// runs with -replica-shards 1. The node advertises the replica ranges via
// /info, so a replica-aware mediator can fail queries over to it when a
// primary dies.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, in-
// flight queries get -drain to finish, then remaining connections are cut
// (their request contexts cancel, aborting the evaluations server-side).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/wire"
)

// loadReplicaShards adopts each listed shard's range into st and copies
// its atoms in from the deployment directory, so the node can serve the
// ranges when their primaries die.
func loadReplicaShards(logf func(string, ...any), st *store.Store, root string, m store.Manifest, self int, list string) error {
	for _, tok := range strings.Split(list, ",") {
		j, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad -replica-shards entry %q: %w", tok, err)
		}
		if j < 0 || j >= len(m.Shards) {
			return fmt.Errorf("-replica-shards index %d out of range (deployment has %d shards)", j, len(m.Shards))
		}
		if j == self {
			continue // the primary shard is already open
		}
		r := morton.Range{Lo: morton.Code(m.Shards[j][0]), Hi: morton.Code(m.Shards[j][1])}
		st.AdoptRange(r)
		src, err := store.OpenShard(root, m, j)
		if err != nil {
			return fmt.Errorf("replica shard %d: %w", j, err)
		}
		codes := make([]morton.Code, 0, r.Hi-r.Lo)
		for c := r.Lo; c < r.Hi; c++ {
			codes = append(codes, c)
		}
		for _, fm := range m.Fields {
			for step := 0; step < m.Steps; step++ {
				blobs, err := src.ReadAtoms(nil, fm.Name, step, codes)
				if err != nil {
					return fmt.Errorf("replica shard %d: reading %q step %d: %w", j, fm.Name, step, err)
				}
				for code, b := range blobs {
					if err := st.Put(fm.Name, step, code, b); err != nil {
						return fmt.Errorf("replica shard %d: adopting atom %v: %w", j, code, err)
					}
				}
			}
		}
		logf("holding shard %d %v as a replica", j, r)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-server: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, loads the node's shard and
// serves it until ctx is done or a signal asks for shutdown. Every mistake
// in args or in the deployment fails it before it listens.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "turbdb-server: ", 0)
	fs := flag.NewFlagSet("turbdb-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		data      = fs.String("data", "", "deployment directory written by turbdb-gen (required)")
		nodeID    = fs.Int("node", 0, "node index within the deployment")
		addr      = fs.String("addr", ":7070", "listen address")
		peers     = fs.String("peers", "", "comma-separated URLs of all node services, in node order")
		replicas  = fs.String("replica-shards", "", "comma-separated shard indexes to also hold as replicas")
		withCache = fs.Bool("cache", true, "enable the semantic query-result cache")
		cacheCap  = fs.Int64("cache-capacity", 0, "cache capacity in bytes (0 = unlimited)")
		processes = fs.Int("processes", 1, "worker processes per query")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this address (off by default)")
		jsonOnly  = fs.Bool("json-only", false, "answer every response as JSON, ignoring binary-frame negotiation (debug/compat)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		fs.Usage()
		return errors.New("-data is required")
	}

	manifest, err := store.ReadManifest(*data)
	if err != nil {
		return err
	}
	st, err := store.OpenShard(*data, manifest, *nodeID)
	if err != nil {
		return err
	}
	if *replicas != "" {
		if err := loadReplicaShards(logger.Printf, st, *data, manifest, *nodeID, *replicas); err != nil {
			return err
		}
	}

	var ca *cache.Cache
	if *withCache {
		ca, err = cache.New(cache.Config{CapacityBytes: *cacheCap})
		if err != nil {
			return err
		}
	}

	n, err := node.New(node.Config{
		ID: *nodeID, Dataset: manifest.Dataset, Store: st, Cache: ca,
		Processes: *processes,
	})
	if err != nil {
		return err
	}
	if *peers != "" {
		var clients []*wire.Client
		for _, url := range strings.Split(*peers, ",") {
			clients = append(clients, wire.NewClient(strings.TrimSpace(url)))
		}
		n.SetPeers(wire.NewPeerSet(clients, *nodeID))
	}

	fmt.Fprintf(stdout, "node %d serving %s shard %v on %s (cache=%v, %d processes)\n",
		*nodeID, manifest.Dataset, st.Owned(), *addr, *withCache, *processes)
	var srvOpts []wire.ServerOption
	if *jsonOnly {
		srvOpts = append(srvOpts, wire.WithJSONOnly())
	}
	srv := &http.Server{Addr: *addr, Handler: wire.NewNodeServer(n, srvOpts...).Handler()}
	return wire.RunDaemon(ctx, wire.DaemonConfig{
		Server: srv, DebugAddr: *debugAddr, Drain: *drain, Logf: logger.Printf,
	})
}
