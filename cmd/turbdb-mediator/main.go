// Command turbdb-mediator runs the front-end Web-server of the analysis
// cluster: it fans user queries out to the database nodes, assembles the
// distributed results, and serves the user-facing API (the role of the
// mediator in the paper's Fig. 1).
//
// Usage:
//
//	turbdb-mediator -addr :7080 \
//	    -nodes http://127.0.0.1:7070,http://127.0.0.1:7071
//
// -allow-partial answers from the surviving nodes when one stays
// unreachable after retries, annotating responses with the coverage of
// the Morton space actually scanned; the default is strict all-or-
// nothing. SIGINT/SIGTERM drain in-flight queries for -drain, then cancel
// them.
//
// The mediator routes by the table membership.Describe reads off what the
// nodes advertise on /info. Node i is the i-th URL of -nodes; its primary
// range is owned by it first and then by every node started with
// -replica-shards covering it, in ring order after node i — the order
// membership.Place gives replicas. A range that only replica holders list
// goes to them in -nodes order. A dead primary's ranges re-route to the
// next live holder — partial answers are a last resort reserved for ranges
// with every holder down. The held ranges must cover the dataset exactly
// once: a range no listed node holds, or a node listed twice, is a startup
// error. -replicas k is a startup bound: the mediator exits unless every
// range has at least k holders.
//
// The concurrent query scheduler (on by default, -sched=false for the bare
// mediator) adds admission control and shared-scan batching in front of the
// fan-out: -sched-concurrent caps in-flight queries, -sched-window bounds
// how long a threshold query that arrives while its (field, order, step) is
// already being scanned waits to share the next node pass with others (a
// query on an idle key runs at once), and -sched-pools carves
// per-tenant resource pools, e.g.
//
//	-sched-pools 'viz=8:32:10,batch=4:16:0'
//
// giving tenant "viz" 8 running slots, a 32-query queue and priority 10.
// Queries name their tenant in the request's "tenant" field; over-quota
// arrivals are shed with HTTP 429.
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
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/wire"
)

// parsePools parses -sched-pools: comma-separated name=running:queued:prio
// entries (any numeric part may be left empty for the default).
func parsePools(spec string) (map[string]sched.Pool, error) {
	if spec == "" {
		return nil, nil
	}
	pools := make(map[string]sched.Pool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		name, rest, ok := strings.Cut(entry, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("pool %q: want name=running:queued:priority", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("pool %q: want name=running:queued:priority", entry)
		}
		var p sched.Pool
		for i, dst := range []*int{&p.MaxRunning, &p.MaxQueued, &p.Priority} {
			if parts[i] == "" {
				continue
			}
			if _, err := fmt.Sscanf(parts[i], "%d", dst); err != nil {
				return nil, fmt.Errorf("pool %q: bad number %q", entry, parts[i])
			}
		}
		pools[name] = p
	}
	return pools, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-mediator: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, reads the routing table off
// the nodes and serves queries until ctx is done or a signal asks for
// shutdown. Every mistake in args, and every node set whose holdings do
// not cover the dataset exactly once with enough copies, fails it before
// it listens.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	logger := log.New(stderr, "turbdb-mediator: ", 0)
	fs := flag.NewFlagSet("turbdb-mediator", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", ":7080", "listen address")
		nodes   = fs.String("nodes", "", "comma-separated URLs of the node services (required)")
		partial = fs.Bool("allow-partial", false, "answer from surviving nodes when a node is unreachable (responses carry coverage)")
		repl    = fs.Int("replicas", 1, "required copies of every range; the mediator exits if the nodes advertise fewer")
		connTO  = fs.Duration("connect-timeout", 30*time.Second, "deadline for contacting every node at startup")
		drain   = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		dbgAddr = fs.String("debug-addr", "", "serve net/http/pprof on this address (off by default)")

		jsonOnly  = fs.Bool("json-only", false, "answer every response as JSON, ignoring binary-frame negotiation (debug/compat)")
		nodeProto = fs.String("node-proto", "json", `response encoding negotiated with the node services: "json" or "frame"`)

		schedOn    = fs.Bool("sched", true, "run the concurrent query scheduler (admission control + shared-scan batching)")
		schedConc  = fs.Int("sched-concurrent", 0, "global concurrent-query cap (0 = 4×GOMAXPROCS)")
		schedWin   = fs.Duration("sched-window", 2*time.Millisecond, "longest a follower of an in-flight scan waits to batch; an idle key runs at once (0 disables batching)")
		schedQueue = fs.Int("sched-queue", 0, "default per-tenant queue quota before shedding (0 = built-in default)")
		schedPools = fs.String("sched-pools", "", "per-tenant pools, name=running:queued:priority[,...]")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		fs.Usage()
		return errors.New("-nodes is required")
	}

	nproto, err := wire.ParseProto(*nodeProto)
	if err != nil {
		return err
	}
	var clients []mediator.NodeClient
	for _, url := range strings.Split(*nodes, ",") {
		clients = append(clients, wire.NewClient(strings.TrimSpace(url), wire.WithProto(nproto)))
	}

	dctx, cancel := context.WithTimeout(ctx, *connTO)
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: *partial, DescribeCtx: dctx,
	})
	cancel()
	if err != nil {
		return err
	}
	topo := m.Topology()
	for i, owners := range topo.Owners {
		if len(owners) < *repl {
			return fmt.Errorf("range %v has %d holders, need %d — start the nodes with -replica-shards", topo.Ranges[i], len(owners), *repl)
		}
	}
	var srvOpts []wire.ServerOption
	if *jsonOnly {
		srvOpts = append(srvOpts, wire.WithJSONOnly())
	}
	handler := wire.NewMediatorServer(m, srvOpts...).Handler()
	if *schedOn {
		pools, err := parsePools(*schedPools)
		if err != nil {
			return err
		}
		s, err := sched.New(m, sched.Config{
			MaxConcurrent: *schedConc,
			DefaultPool:   sched.Pool{MaxQueued: *schedQueue},
			Pools:         pools,
			BatchWindow:   *schedWin,
		})
		if err != nil {
			return err
		}
		defer s.Close()
		handler = wire.NewQuerierServer(s, srvOpts...).Handler()
	}
	fmt.Fprintf(stdout, "mediator for %s (%d nodes, %d³ grid, partial=%v, replicas=%d, sched=%v) on %s\n",
		m.Dataset(), len(clients), m.Grid().N, *partial, *repl, *schedOn, *addr)
	srv := &http.Server{Addr: *addr, Handler: handler}
	return wire.RunDaemon(ctx, wire.DaemonConfig{
		Server: srv, DebugAddr: *dbgAddr, Drain: *drain, Logf: logger.Printf,
	})
}
