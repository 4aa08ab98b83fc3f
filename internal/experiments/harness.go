package experiments

import (
	"fmt"
	"sync"
	"time"

	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/topology"
	"spnet/internal/workload"
)

// This file is the shared harness of the three-way experiments: the planted
// instance that model and simulator price, the time bridge and scheduler
// that replay virtual-time schedules on a live fleet, and the poller every
// live readiness barrier waits on.

// planted describes a hand-planted instance whose model, simulated and live
// behaviour are known in closed form: every cluster of graph has `partners`
// file-less partners and `clients` clients sharing one file each, queries
// come from a single class, and nothing churns. Content is split evenly over
// `topics`: a query matches a cluster's index with probability 1/topics and
// then returns every client's file there.
type planted struct {
	graph     topology.Graph
	partners  int
	clients   int
	topics    int
	queryRate float64 // per user, queries per second
	term      string  // a query string; its length prices query messages
	ttl       int
}

// plantedInstance builds the instance a planted spec describes.
func plantedInstance(pl planted) (*network.Instance, error) {
	qm, err := workload.NewQueryModel([]float64{1}, []float64{1})
	if err != nil {
		return nil, err
	}
	const never = 1e12 // lifespan, seconds: join rate 1/never ~ 0
	n := pl.graph.N()
	clusters := make([]network.Cluster, n)
	for v := range clusters {
		cl := network.Cluster{
			Partners:   make([]network.Peer, pl.partners),
			IndexFiles: pl.clients,
			ExpResults: float64(pl.clients) / float64(pl.topics),
			ExpAddrs:   float64(pl.clients) / float64(pl.topics),
			ProbResp:   1 / float64(pl.topics),
			Clients:    make([]network.Peer, pl.clients),
		}
		for i := range cl.Partners {
			cl.Partners[i] = network.Peer{Files: 0, Lifespan: never}
		}
		for i := range cl.Clients {
			cl.Clients[i] = network.Peer{Files: 1, Lifespan: never}
		}
		clusters[v] = cl
	}
	graphType := network.PowerLaw
	if pl.graph.IsClique() {
		graphType = network.Strong
	}
	size := pl.clients + pl.partners
	return &network.Instance{
		Config: network.Config{
			GraphType:   graphType,
			GraphSize:   n * size,
			ClusterSize: size,
			KRedundancy: pl.partners,
			TTL:         pl.ttl,
		},
		Profile: &workload.Profile{
			Queries:  qm,
			Rates:    workload.Rates{QueryRate: pl.queryRate},
			QueryLen: len(pl.term),
		},
		Graph:    pl.graph,
		Clusters: clusters,
		NumPeers: n * size,
	}, nil
}

// starGraph is the hub-and-leaves overlay: node 0 is the hub, nodes
// 1..leaves link to it.
func starGraph(leaves int) (*topology.AdjGraph, error) {
	edges := make([][2]int, leaves)
	for i := range edges {
		edges[i] = [2]int{0, i + 1}
	}
	return topology.NewAdjGraph(leaves+1, edges)
}

// timeBridge maps the simulator's virtual seconds onto wall-clock time for
// the live experiments: wall = virtual / scale. Schedules are drawn in
// virtual seconds, so they are deterministic in the seed at any scale; only
// the measured counts depend on real scheduling.
type timeBridge float64

func (b timeBridge) wall(virtual float64) time.Duration {
	return time.Duration(virtual / float64(b) * float64(time.Second))
}

// wallClamped is wall with a floor, for knobs (heartbeats, backoff) that
// stop making sense below scheduler granularity.
func (b timeBridge) wallClamped(virtual float64, floor time.Duration) time.Duration {
	return max(b.wall(virtual), floor)
}

// virtual converts a measured wall-clock span back into virtual seconds.
func (b timeBridge) virtual(d time.Duration) float64 { return d.Seconds() * float64(b) }

// scheduler replays event streams drawn in virtual seconds at their bridged
// wall-clock times, all measured from one start instant. Arrival streams
// (the query workload) run to completion and fire late events late; fault
// streams are cut off when the run ends.
type scheduler struct {
	bridge      timeBridge
	start       time.Time
	stop        chan struct{}
	work, fault sync.WaitGroup
}

func newScheduler(b timeBridge) *scheduler {
	return &scheduler{bridge: b, start: time.Now(), stop: make(chan struct{})}
}

// sleepUntil blocks until virtual time at, or until the run has ended, and
// reports whether the time was reached.
func (s *scheduler) sleepUntil(at float64) bool {
	wait := time.Until(s.start.Add(s.bridge.wall(at)))
	if wait <= 0 {
		return true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stop:
		return false
	}
}

// stream runs fire(i) at virtual time ats[i], in order, on its own
// goroutine.
func (s *scheduler) stream(wg *sync.WaitGroup, ats []float64, fire func(i int)) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, at := range ats {
			if !s.sleepUntil(at) {
				return
			}
			fire(i)
		}
	}()
}

// arrivals starts a workload stream; finish waits for all of it.
func (s *scheduler) arrivals(ats []float64, fire func(i int)) { s.stream(&s.work, ats, fire) }

// faults starts a fault stream; events not yet due when the run ends are
// dropped.
func (s *scheduler) faults(ats []float64, fire func(i int)) { s.stream(&s.fault, ats, fire) }

// finish waits for every arrival stream, then for virtual time end, then
// ends the run: fault streams stop and are waited for. It returns the wall
// time elapsed since the start.
func (s *scheduler) finish(end float64) time.Duration {
	s.work.Wait()
	s.sleepUntil(end)
	close(s.stop)
	s.fault.Wait()
	return time.Since(s.start)
}

// pollInterval is how often await re-checks its condition.
const pollInterval = 20 * time.Millisecond

// await polls cond until it holds, or fails naming what once timeout has
// passed. It is the one readiness barrier of the live experiments: they wait
// on observable conditions, never on fixed settle times.
func await(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(pollInterval)
	}
	return nil
}

// fleetSum adds stat over every running super-peer of the fleet.
func fleetSum(live *network.Live, stat func(*p2p.Node) int64) int64 {
	var sum int64
	for _, sp := range live.SuperPeers() {
		if n := live.Node(sp.Cluster, sp.Partner); n != nil {
			sum += stat(n)
		}
	}
	return sum
}

// awaitWired waits until every super-peer of a fleet launched on g with k
// partners per cluster has its full overlay peer set: k-1 co-partners plus k
// partners of each adjacent cluster.
func awaitWired(live *network.Live, g topology.Graph, k int) error {
	return await("overlay links", 10*time.Second, func() bool {
		for _, sp := range live.SuperPeers() {
			n := live.Node(sp.Cluster, sp.Partner)
			if n == nil || n.Stats().Peers != k-1+g.Degree(sp.Cluster)*k {
				return false
			}
		}
		return true
	})
}

// awaitIndexed waits until the fleet's super-peers together index want
// files: every joining client's collection has landed.
func awaitIndexed(live *network.Live, want int) error {
	return await(fmt.Sprintf("%d indexed files", want), 10*time.Second, func() bool {
		return fleetSum(live, func(n *p2p.Node) int64 { return int64(n.Stats().IndexedFiles) }) == int64(want)
	})
}

// awaitQuiet waits until no query is moving through the fleet: the summed
// forwarded and handled query counters are unchanged across consecutive
// polls.
func awaitQuiet(live *network.Live) error {
	last := int64(-1)
	return await("query traffic to settle", 10*time.Second, func() bool {
		cur := fleetSum(live, func(n *p2p.Node) int64 {
			return n.Metrics().QueriesForwarded.Value() + n.Stats().QueriesHandled
		})
		settled := cur == last
		last = cur
		return settled
	})
}
