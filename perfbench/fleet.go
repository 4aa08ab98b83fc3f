package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/stats"
)

// The live workloads' fleet shape: a ring of 3 clusters, each a virtual
// super-peer of 2 partners.
const (
	numClusters = 3
	numPartners = 2
	// At the search workload's offered rate an overlay link carries about
	// 400 queries/s and a super-peer dispatches about 2,200/s, so these
	// hold the backlog of a pause of several seconds (defaults: 64, 1024).
	maxInflight = 1 << 12
	queueDepth  = 1 << 14
)

// fleetSpec describes what one live set-up launches and waits for.
type fleetSpec struct {
	node       p2p.Options
	corpus     [][]p2p.SharedFile // one collection per corpus client
	churn      int                // churn clients, each starting with 2 files
	storeFiles int                // files every super-peer serves itself
	wire       int                // load-generator connections
}

// fleet is one launched network.Live with its clients.
type fleet struct {
	live  *network.Live
	nodes []*p2p.Node
	// clients holds every corpus client until teardown. A p2p.Client with
	// heartbeats off has no goroutine of its own, so once it is unreachable
	// the net.Conn finalizer closes it and its files silently leave the
	// super-peer's index.
	clients []*p2p.Client
	ports   []uint16 // each corpus client's local port, its responder port in QueryHits
	churn   []*churnClient
	wire    []*wireConn
	launch  time.Duration
	closed  bool
}

// churnClient is a client whose collection the churn schedule edits.
type churnClient struct {
	opts  p2p.DialOptions
	cl    *p2p.Client
	files []p2p.SharedFile
	next  uint32
}

// clusterAddrs returns cluster c's partner list rotated by rot, so clients
// spread over both partners of their virtual super-peer.
func clusterAddrs(l *network.Live, c, rot int) []string {
	addrs := l.ClusterAddrs(c)
	rot %= len(addrs)
	return append(addrs[rot:], addrs[:rot]...)
}

// startFleet launches the fleet, joins every client and waits until the
// fleet is ready: each super-peer has its full peer set and the super-peers
// together index every shared file. Readiness is polled from Node.Stats, with
// no fixed settle time.
func startFleet(spec fleetSpec, seed uint64, t *tracker) (*fleet, error) {
	tr := t.tracer()
	spec.node.DrainTimeout = -1
	// Admission limits far above the load the workloads offer, so a pause of
	// the host delays the burst of queries queued behind it instead of
	// shedding it with Busy: every query of a run is meant to complete.
	spec.node.MaxInflight = maxInflight
	spec.node.QueueDepth = queueDepth
	f := &fleet{live: network.NewLive(network.LiveConfig{
		Clusters: numClusters, Partners: numPartners, Seed: seed, Node: spec.node})}
	start := time.Now()
	var err error
	tr.Do("network.launch", 0, 0, func() { err = f.live.Launch() })
	f.launch = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("launching fleet: %w", err)
	}
	for _, sp := range f.live.SuperPeers() {
		f.nodes = append(f.nodes, f.live.Node(sp.Cluster, sp.Partner))
	}
	wantFiles := spec.storeFiles * len(f.nodes)
	for i, files := range spec.corpus {
		var port uint16
		opts := p2p.DialOptions{
			Addrs: clusterAddrs(f.live, i%numClusters, i/numClusters),
			Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
				c, err := net.DialTimeout(network, addr, timeout)
				if err == nil {
					port = uint16(c.LocalAddr().(*net.TCPAddr).Port)
				}
				return c, err
			},
		}
		var cl *p2p.Client
		tr.Do("p2p.dial_client", 0, 0, func() { cl, err = p2p.DialClientOptions(opts, files) })
		if err != nil {
			f.close()
			return nil, fmt.Errorf("joining corpus client %d: %w", i, err)
		}
		f.clients = append(f.clients, cl)
		f.ports = append(f.ports, port)
		wantFiles += len(files)
	}
	rng := stats.NewRNG(seed).Split(saltChurnFiles)
	for i := 0; i < spec.churn; i++ {
		cc := &churnClient{opts: p2p.DialOptions{Addrs: clusterAddrs(f.live, i%numClusters, i/numClusters)}}
		for ; cc.next < 2; cc.next++ {
			cc.files = append(cc.files, p2p.SharedFile{Index: cc.next, Size: 1 << 20, Title: churnTitle(rng)})
		}
		tr.Do("p2p.dial_client", 0, 0, func() { cc.cl, err = p2p.DialClientOptions(cc.opts, cc.files) })
		if err != nil {
			f.close()
			return nil, fmt.Errorf("joining churn client %d: %w", i, err)
		}
		f.churn = append(f.churn, cc)
		wantFiles += len(cc.files)
	}
	for j := 0; j < spec.wire; j++ {
		addr := f.live.ClusterAddrs(j % numClusters)[(j/numClusters)%numPartners]
		var guid gnutella.GUID
		guid[0], guid[1] = 0xbe, byte(j)
		w, err := dialWire(addr, guid, t)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dialing load generator: %w", err)
		}
		f.wire = append(f.wire, w)
	}
	wantClients := len(spec.corpus) + spec.churn + spec.wire
	if err := f.waitReady(wantClients, wantFiles, tr); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// wantPeers is each super-peer's overlay degree: its co-partners plus every
// partner of each ring-adjacent cluster.
func wantPeers() int {
	neighbors := 2
	switch numClusters {
	case 1:
		neighbors = 0
	case 2:
		neighbors = 1
	}
	return numPartners - 1 + numPartners*neighbors
}

func (f *fleet) waitReady(clients, files int, tr *Tracer) error {
	deadline := time.Now().Add(20 * time.Second)
	s := tr.Begin("p2p.ready", 0, 0)
	defer tr.End(s)
	for {
		gotClients, gotFiles, peersOK := 0, 0, true
		for _, n := range f.nodes {
			st := n.Stats()
			gotClients += st.Clients
			gotFiles += st.IndexedFiles
			peersOK = peersOK && st.Peers == wantPeers()
		}
		if peersOK && gotClients == clients && gotFiles == files {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready: %d/%d clients, %d/%d files, peers complete %v",
				gotClients, clients, gotFiles, files, peersOK)
		}
		runtime.Gosched()
		time.Sleep(200 * time.Microsecond)
	}
}

// close tears the fleet down: load generator, clients, then super-peers.
// Closing twice is a no-op.
func (f *fleet) close() {
	if f.closed {
		return
	}
	f.closed = true
	for _, w := range f.wire {
		w.Close()
	}
	for _, cc := range f.churn {
		cc.cl.Close()
	}
	for _, cl := range f.clients {
		cl.Close()
	}
	f.live.Close()
}

// setupTimes records a run's set-up times, in wall and process CPU seconds:
// the measured fleet's, and those of extra set-ups made after the
// measurement, so that their garbage and closing sockets never overlap a
// measured phase.
type setupTimes struct{ secs, cpu, launchMS []float64 }

// start sets a fleet up from spec, timing spec itself too, and records how
// long it took.
func (s *setupTimes) start(spec func() fleetSpec, seed uint64, t *tracker) (*fleet, error) {
	start, cpu0 := time.Now(), cpuTime()
	f, err := startFleet(spec(), seed, t)
	if err != nil {
		return nil, err
	}
	s.secs = append(s.secs, time.Since(start).Seconds())
	s.cpu = append(s.cpu, (cpuTime() - cpu0).Seconds())
	s.launchMS = append(s.launchMS, ms(f.launch))
	return f, nil
}

// repeat sets fleets up and tears them down until n set-ups are recorded.
func (s *setupTimes) repeat(n int, spec func() fleetSpec, seed uint64, t *tracker) error {
	for len(s.secs) < n {
		f, err := s.start(spec, seed, t)
		if err != nil {
			return err
		}
		f.close()
	}
	return nil
}

// apply performs one churn operation.
func (cc *churnClient) apply(op churnOp) error {
	switch op.kind {
	case opInsert:
		f := p2p.SharedFile{Index: cc.next, Size: 1 << 20, Title: op.title}
		cc.next++
		cc.files = append(cc.files, f)
		return cc.cl.Update(gnutella.OpInsert, f)
	case opDelete:
		if len(cc.files) == 0 {
			return nil
		}
		i := op.pick % len(cc.files)
		f := cc.files[i]
		cc.files = append(cc.files[:i], cc.files[i+1:]...)
		return cc.cl.Update(gnutella.OpDelete, f)
	default: // leave, then join again with the current collection
		if err := cc.cl.Close(); err != nil {
			return err
		}
		cl, err := p2p.DialClientOptions(cc.opts, cc.files)
		if err != nil {
			return err
		}
		cc.cl = cl
		return nil
	}
}

// churner runs the churn schedule at a fixed rate until stopped.
type churner struct {
	stop chan struct{}
	done chan struct{}
	ops  int
	errs []error
}

func startChurn(f *fleet, sched []churnOp, rate float64, t *tracker) *churner {
	ch := &churner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ch.done)
		tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
		for _, op := range sched {
			select {
			case <-ch.stop:
				return
			case <-tick.C:
			}
			var err error
			t.tracer().Do("p2p.churn", 0, 0, func() { err = f.churn[op.client%len(f.churn)].apply(op) })
			ch.ops++
			if err != nil {
				ch.errs = append(ch.errs, err)
			}
		}
	}()
	return ch
}

// halt stops the churn goroutine and waits for it.
func (ch *churner) halt() {
	close(ch.stop)
	<-ch.done
}

// p2pSnap is the fleet's query-path counters at one instant.
type p2pSnap struct {
	handled, shed, forwarded, bytes int64
	service                         metrics.HistogramSnapshot
}

func snapP2P(nodes []*p2p.Node) p2pSnap {
	var s p2pSnap
	for i, n := range nodes {
		st := n.Stats()
		m := n.Metrics()
		s.handled += st.QueriesHandled
		s.shed += st.QueriesShed
		if m.QueriesForwarded != nil {
			s.forwarded += m.QueriesForwarded.Value()
		}
		s.bytes += m.ConnBytes[metrics.DirIn].Value() + m.ConnBytes[metrics.DirOut].Value()
		h := m.QueryService.Snapshot()
		if i == 0 {
			s.service = h
		} else if err := s.service.Merge(h); err != nil {
			panic(err) // every node uses the same buckets
		}
	}
	return s
}

// p2pLayer turns two snapshots into the p2p per-layer metrics for the
// client queries sent between them.
func p2pLayer(a, b p2pSnap, clientQueries int) []metric {
	q := float64(max(clientQueries, 1))
	svc := b.service
	svc.Counts = append([]uint64(nil), svc.Counts...)
	for i := range svc.Counts {
		svc.Counts[i] -= a.service.Counts[i]
	}
	svc.Count -= a.service.Count
	handled := float64(b.handled - a.handled)
	shed := float64(b.shed - a.shed)
	return []metric{
		{"p2p.dispatch_per_query", "count", handled / q},
		{"p2p.forwarded_per_query", "count", float64(b.forwarded-a.forwarded) / q},
		{"p2p.service_us_mean", "us", (b.service.Sum - a.service.Sum) / float64(max(svc.Count, 1)) * 1e6},
		{"p2p.service_us_p99", "us", histQuantile(svc, 0.99) * 1e6},
		{"p2p.shed_ratio", "ratio", shed / max(handled+shed, 1)},
		{"p2p.wire_bytes_per_query", "B", float64(b.bytes-a.bytes) / q},
	}
}

// histQuantile interpolates the q-quantile inside the bucket that holds it.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		if i == len(h.Bounds) {
			return lo // overflow bucket: its lower bound is all that is known
		}
		if cum+float64(c) >= rank && c > 0 {
			return lo + (h.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// churnStats summarizes the churn that ran beside a phase.
func (ch *churner) report() string {
	return fmt.Sprintf("churn ops=%d errors=%d", ch.ops, len(ch.errs))
}

// addrPort parses the port of a TCP address.
func addrPort(addr string) (uint16, error) {
	_, p, err := net.SplitHostPort(addr)
	if err != nil {
		return 0, err
	}
	port, err := strconv.ParseUint(p, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("port of %s: %w", addr, err)
	}
	return uint16(port), nil
}
