package network

import (
	"fmt"
	"net"
	"net/http"
	"sync"

	"spnet/internal/faults"
	"spnet/internal/metrics"
	"spnet/internal/p2p"
	"spnet/internal/topology"
)

// LiveConfig shapes a live loopback deployment: real p2p.Node super-peers
// wired into the paper's redundant-cluster topology, with every connection
// routed through a faults.Controller so churn is scriptable and
// deterministic.
type LiveConfig struct {
	// Clusters is the number of virtual super-peers (default 3). It is
	// ignored when Graph is set: the graph's node count wins.
	Clusters int
	// Partners is the k-redundancy level: partners per virtual super-peer
	// (Section 3.2; default 2).
	Partners int
	// Graph is the overlay between clusters, the same graph a
	// network.Instance carries. Nil wires a ring over Clusters.
	Graph topology.Graph
	// Seed drives the fault controller's randomness.
	Seed uint64
	// Telemetry starts a loopback HTTP server per super-peer serving the
	// node's metrics registry (Prometheus text, expvar JSON, pprof) — the
	// same handler spnet-node exposes for -telemetry. Addresses are pinned
	// across kill/restart and reported by SuperPeers.
	Telemetry bool
	// Malicious picks the slots that run Node.Misbehave, with the same
	// shape as sim.AdversaryOptions.Malicious; the others run honest. Nil
	// gives every slot Node.Misbehave.
	Malicious func(cluster, partner int) bool
	// Node is the base configuration applied to every super-peer; its
	// Wrap/Dial hooks are overwritten to route through the fault
	// controller. Each slot's RoutingSeed and Misbehave.Seed are the
	// configured value plus the slot number (cluster·Partners + partner),
	// so the slots draw distinct streams.
	Node p2p.Options
}

func (c *LiveConfig) setDefaults() {
	if c.Graph != nil {
		c.Clusters = c.Graph.N()
	} else {
		if c.Clusters <= 0 {
			c.Clusters = 3
		}
		c.Graph = ring(c.Clusters)
	}
	if c.Partners <= 0 {
		c.Partners = 2
	}
}

// ring links each cluster to its successor, closing the loop once there are
// more than two clusters.
func ring(n int) topology.Graph {
	var edges [][2]int
	for c := 1; c < n; c++ {
		edges = append(edges, [2]int{c - 1, c})
	}
	if n > 2 {
		edges = append(edges, [2]int{n - 1, 0})
	}
	g, err := topology.NewAdjGraph(n, edges)
	if err != nil {
		panic(err) // unreachable: the edges are in range and distinct
	}
	return g
}

// liveNode is one super-peer slot. The listen address is pinned at launch so
// a restarted super-peer reappears where clients and peers expect it; the
// telemetry address is pinned the same way so scrapers survive restarts.
type liveNode struct {
	node    *p2p.Node // nil while killed
	addr    string
	telAddr string       // telemetry HTTP address, "" unless LiveConfig.Telemetry
	telSrv  *http.Server // nil while killed or telemetry disabled
}

// Live runs a real super-peer network on loopback and orchestrates churn
// against it: killing and restarting super-peers, partitioning whole
// clusters, and injecting link faults. Clusters sit on the configured overlay
// graph; all partners of adjacent clusters are fully inter-linked, and
// partners within a cluster peer with each other, matching the paper's
// redundancy wiring.
type Live struct {
	cfg  LiveConfig
	ctrl *faults.Controller

	mu     sync.Mutex
	nodes  [][]*liveNode // [cluster][partner]
	closed bool
}

// NewLive builds the harness; call Launch to boot the network.
func NewLive(cfg LiveConfig) *Live {
	cfg.setDefaults()
	return &Live{cfg: cfg, ctrl: faults.NewController(cfg.Seed)}
}

// label names a super-peer slot for the fault controller.
func label(cluster, partner int) string { return fmt.Sprintf("sp-%d-%d", cluster, partner) }

// Faults exposes the controller for scripting link faults on top of the
// topology-level churn operations.
func (l *Live) Faults() *faults.Controller { return l.ctrl }

// Launch boots every super-peer and wires the overlay. On error the harness
// is closed.
func (l *Live) Launch() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nodes != nil {
		return fmt.Errorf("network: Launch called twice")
	}
	l.nodes = make([][]*liveNode, l.cfg.Clusters)
	for c := range l.nodes {
		l.nodes[c] = make([]*liveNode, l.cfg.Partners)
		for p := range l.nodes[c] {
			ln := &liveNode{node: l.newNode(c, p)}
			if err := ln.node.Listen("127.0.0.1:0"); err != nil {
				l.closeLocked()
				return err
			}
			ln.addr = ln.node.Addr()
			l.nodes[c][p] = ln
			if err := l.startTelemetryLocked(ln); err != nil {
				l.closeLocked()
				return err
			}
			ln.node.SetIdentity(label(c, p), ln.telAddr)
		}
	}
	for c := range l.nodes {
		for p := range l.nodes[c] {
			if err := l.dialNeighborsLocked(c, p, true); err != nil {
				l.closeLocked()
				return err
			}
		}
	}
	return nil
}

// startTelemetryLocked serves the slot node's metrics registry over HTTP. The
// first start picks a free loopback port; restarts rebind the pinned address.
func (l *Live) startTelemetryLocked(ln *liveNode) error {
	if !l.cfg.Telemetry {
		return nil
	}
	addr := ln.telAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ln.telAddr = lis.Addr().String()
	ln.telSrv = &http.Server{Handler: metrics.Handler(ln.node.Metrics().Registry())}
	go ln.telSrv.Serve(lis)
	return nil
}

// stopTelemetry shuts a slot's telemetry server down, keeping the pinned
// address for a later restart. Safe on nil.
func stopTelemetry(srv *http.Server) {
	if srv != nil {
		srv.Close()
	}
}

// SuperPeerInfo identifies one live super-peer slot. The Live harness reports
// slots in stable cluster-major, partner-minor order with addresses pinned
// across kill/restart, so scrape loops and result tables are deterministic.
type SuperPeerInfo struct {
	Cluster int    // cluster index on the overlay graph
	Partner int    // partner rank within the cluster
	ID      string // stable label, "sp-<cluster>-<partner>"
	Addr    string // p2p listen address (pinned across restarts)
	// Telemetry is the HTTP metrics address, "" unless LiveConfig.Telemetry.
	Telemetry string
}

// SuperPeers enumerates every super-peer slot in stable cluster-major,
// partner-minor order — including killed slots, whose addresses remain valid
// for when they return.
func (l *Live) SuperPeers() []SuperPeerInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SuperPeerInfo, 0, len(l.nodes)*l.cfg.Partners)
	for c := range l.nodes {
		for p, ln := range l.nodes[c] {
			if ln == nil {
				continue
			}
			out = append(out, SuperPeerInfo{
				Cluster: c, Partner: p,
				ID: label(c, p), Addr: ln.addr, Telemetry: ln.telAddr,
			})
		}
	}
	return out
}

// newNode builds a super-peer whose connections all pass through the fault
// controller under the slot's label, with the slot's derived seeds.
func (l *Live) newNode(cluster, partner int) *p2p.Node {
	opts := l.cfg.Node
	lbl := label(cluster, partner)
	opts.Wrap = l.ctrl.WrapAccept(lbl)
	opts.Dial = l.ctrl.Dialer(lbl)
	slot := uint64(l.slot(cluster, partner))
	opts.RoutingSeed += slot
	if opts.Misbehave != nil {
		if l.cfg.Malicious != nil && !l.cfg.Malicious(cluster, partner) {
			opts.Misbehave = nil
		} else {
			mis := *opts.Misbehave
			mis.Seed += slot
			opts.Misbehave = &mis
		}
	}
	return p2p.NewNode(opts)
}

// slot numbers super-peer slots in cluster-major, partner-minor order.
func (l *Live) slot(cluster, partner int) int { return cluster*l.cfg.Partners + partner }

// dialNeighborsLocked dials a slot's overlay links: every co-partner and
// every partner of each cluster adjacent in the graph (2k links per adjacent
// pair — the redundancy cost Section 3.2 accounts for). At launch a slot
// dials only the slots numbered before it and the later ones dial back, so
// each link is made once; a restarted slot dials every running neighbour,
// since none will dial it. Dialing continues past a failure and the first
// error is returned.
func (l *Live) dialNeighborsLocked(cluster, partner int, launch bool) error {
	self := l.slot(cluster, partner)
	n := l.nodes[cluster][partner].node
	var first error
	dialCluster := func(c int) bool {
		for p, tgt := range l.nodes[c] {
			if s := l.slot(c, p); s == self || (launch && s > self) || tgt.node == nil {
				continue
			}
			if err := n.ConnectPeer(tgt.addr); err != nil && first == nil {
				first = err
			}
		}
		return true
	}
	dialCluster(cluster)
	l.cfg.Graph.VisitNeighbors(cluster, dialCluster)
	return first
}

// ClusterAddrs returns the cluster's ranked partner addresses — the
// redundant super-peer list a client hands to DialOptions.Addrs. Addresses
// are stable across kill/restart.
func (l *Live) ClusterAddrs(cluster int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.nodes[cluster]))
	for p, ln := range l.nodes[cluster] {
		out[p] = ln.addr
	}
	return out
}

// Node returns the running super-peer in a slot, or nil while it is killed.
func (l *Live) Node(cluster, partner int) *p2p.Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[cluster][partner].node
}

// KillSuperPeer crashes one partner: every one of its connections drops at
// once, exactly what the reliability experiment's failure process models.
func (l *Live) KillSuperPeer(cluster, partner int) error {
	l.mu.Lock()
	ln := l.nodes[cluster][partner]
	n := ln.node
	srv := ln.telSrv
	ln.node = nil
	ln.telSrv = nil
	l.mu.Unlock()
	if n == nil {
		return fmt.Errorf("network: super-peer %d/%d already dead", cluster, partner)
	}
	stopTelemetry(srv)
	l.ctrl.ResetNode(label(cluster, partner))
	return n.Close()
}

// RestartSuperPeer brings a killed partner back on its original address and
// re-dials its overlay neighborhood. Clients re-join on their own via their
// supervised reconnect loops.
func (l *Live) RestartSuperPeer(cluster, partner int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("network: harness closed")
	}
	ln := l.nodes[cluster][partner]
	if ln.node != nil {
		return fmt.Errorf("network: super-peer %d/%d still running", cluster, partner)
	}
	n := l.newNode(cluster, partner)
	if err := n.Listen(ln.addr); err != nil {
		return err
	}
	ln.node = n
	if err := l.startTelemetryLocked(ln); err != nil {
		ln.node = nil
		n.Close()
		return err
	}
	n.SetIdentity(label(cluster, partner), ln.telAddr)
	return l.dialNeighborsLocked(cluster, partner, false)
}

// ControllerLabel is the fault-controller label of the fleet controller's
// vantage point. Route a control.Controller's Options.Dial through
// Faults().Dialer(ControllerLabel) (internal/control cannot be imported here
// without a cycle — the experiment layer assembles the Options from
// SuperPeers()), and controller partitions become scriptable like any other
// fault.
const ControllerLabel = "controller"

// PartitionController cuts the fleet controller off from every node: its
// control links blackhole and its scrapes fail, while the overlay itself
// keeps running — the control plane's graceful-degradation drill.
func (l *Live) PartitionController() { l.ctrl.Isolate(ControllerLabel) }

// HealController reverses PartitionController.
func (l *Live) HealController() { l.ctrl.Restore(ControllerLabel) }

// PartitionCluster cuts every partner of a cluster off the network: their
// traffic blackholes until HealCluster. Connections stay up, so this models
// a network partition rather than a crash — dead-peer detection, not error
// returns, is what notices it.
func (l *Live) PartitionCluster(cluster int) {
	for p := range l.partners(cluster) {
		l.ctrl.Isolate(label(cluster, p))
	}
}

// HealCluster reverses PartitionCluster.
func (l *Live) HealCluster(cluster int) {
	for p := range l.partners(cluster) {
		l.ctrl.Restore(label(cluster, p))
	}
}

func (l *Live) partners(cluster int) []*liveNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[cluster]
}

// Close tears the whole network down.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked()
}

func (l *Live) closeLocked() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	for _, cluster := range l.nodes {
		for _, ln := range cluster {
			if ln == nil {
				continue
			}
			stopTelemetry(ln.telSrv)
			ln.telSrv = nil
			if ln.node == nil {
				continue
			}
			if err := ln.node.Close(); err != nil && first == nil {
				first = err
			}
			ln.node = nil
		}
	}
	return first
}
