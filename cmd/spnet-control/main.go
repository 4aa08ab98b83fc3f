// Command spnet-control runs the fleet controller: it watches a set of live
// super-peers (spnet-node processes) over persistent control links and their
// /metrics telemetry, and pushes the paper's Section 5.3 local decision
// rules to them as epoch-versioned directives — partner promotion when a
// node dies or flaps, cluster split and TTL decay on sustained overload,
// coalesce on underload.
//
// Each -node flag names one super-peer as id=addr[=telemetry] with the
// optional cluster/partner position appended as @cluster.partner:
//
//	spnet-node -listen 127.0.0.1:7001 -id sp-0-0 -telemetry 127.0.0.1:9001
//	spnet-node -listen 127.0.0.1:7002 -id sp-0-1 -telemetry 127.0.0.1:9002
//	spnet-control -node sp-0-0=127.0.0.1:7001=127.0.0.1:9001@0.0 \
//	              -node sp-0-1=127.0.0.1:7002=127.0.0.1:9002@0.1 \
//	              -capacity 100 -scrape 2s
//
// Nodes keep serving on their last-applied configuration whenever the
// controller is unreachable; restarting spnet-control is safe — it relearns
// the fleet's directive epoch from the nodes' Register announcements.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spnet"
)

// nodeFlags collects repeated -node specs.
type nodeFlags []spnet.FleetNodeConfig

func (n *nodeFlags) String() string { return fmt.Sprintf("%d nodes", len(*n)) }

// Set parses id=addr[=telemetry][@cluster.partner].
func (n *nodeFlags) Set(spec string) error {
	cfg := spnet.FleetNodeConfig{}
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		pos := spec[at+1:]
		spec = spec[:at]
		if _, err := fmt.Sscanf(pos, "%d.%d", &cfg.Cluster, &cfg.Partner); err != nil {
			return fmt.Errorf("bad position %q (want cluster.partner): %v", pos, err)
		}
	}
	parts := strings.Split(spec, "=")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return fmt.Errorf("bad node spec %q (want id=addr[=telemetry][@cluster.partner])", spec)
	}
	cfg.ID, cfg.Addr = parts[0], parts[1]
	if len(parts) == 3 {
		cfg.Telemetry = parts[2]
	}
	*n = append(*n, cfg)
	return nil
}

// validateLimits rejects a -capacity or -base-ttl the directive wire
// format cannot carry, rather than letting the controller clamp it.
func validateLimits(capacity, baseTTL int) error {
	if capacity < 1 || capacity > spnet.FleetMaxClientCapacity {
		return fmt.Errorf("-capacity %d out of range [1, %d]", capacity, spnet.FleetMaxClientCapacity)
	}
	if baseTTL < 1 || baseTTL > spnet.FleetMaxBaseTTL {
		return fmt.Errorf("-base-ttl %d out of range [1, %d]", baseTTL, spnet.FleetMaxBaseTTL)
	}
	return nil
}

func main() {
	var nodes nodeFlags
	var (
		scrape   = flag.Duration("scrape", 2*time.Second, "scrape/decision interval")
		rpcTO    = flag.Duration("rpc-timeout", 2*time.Second, "per-directive round-trip timeout")
		capacity = flag.Int("capacity", 100, "baseline per-node client capacity (promotion doubles it)")
		inLimit  = flag.Float64("limit-in-bps", 0, "per-node incoming-bandwidth limit; 0 disables the hotspot/underload rules")
		outLimit = flag.Float64("limit-out-bps", 0, "per-node outgoing-bandwidth limit")
		ttl      = flag.Int("base-ttl", 7, "baseline TTL (the ceiling TTL decay works down from)")
		scale    = flag.Float64("time-scale", 1, "virtual seconds per wall second (for compressed-time workloads)")
		seed     = flag.Uint64("seed", 1, "seed for backoff jitter")
		verbose  = flag.Bool("v", false, "log controller diagnostics")
	)
	flag.Var(&nodes, "node", "super-peer as id=addr[=telemetry][@cluster.partner]; repeatable")
	flag.Parse()
	if len(nodes) == 0 {
		fmt.Fprintln(os.Stderr, "spnet-control: at least one -node is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := validateLimits(*capacity, *ttl); err != nil {
		fmt.Fprintln(os.Stderr, "spnet-control:", err)
		os.Exit(2)
	}

	opts := spnet.FleetOptions{
		Nodes:          nodes,
		ScrapeInterval: *scrape,
		RPCTimeout:     *rpcTO,
		ClientCapacity: *capacity,
		Limit:          spnet.Load{InBps: *inLimit, OutBps: *outLimit},
		BaseTTL:        *ttl,
		TimeScale:      *scale,
		Seed:           *seed,
		OnEvent: func(e spnet.FleetEvent) {
			fmt.Printf("%s %s\n", e.Time.Format("15:04:05.000"), e)
		},
	}
	if *verbose {
		opts.Logf = log.Printf
	}
	ctrl := spnet.NewFleetController(opts)
	ctrl.Start()
	fmt.Printf("fleet controller watching %d nodes (scrape %s, capacity %d)\n",
		len(nodes), *scrape, *capacity)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nshutting down; nodes keep their last-applied configuration")
	ctrl.Close()
}
