package sim

import (
	"spnet/internal/analysis"
	"spnet/internal/cost"
	"spnet/internal/design"
)

// AdaptiveOptions turn on the Section 5.3 local decision rules: each
// super-peer periodically inspects its own measured load and acts — growing
// its outdegree, promoting partners, splitting or merging clusters, dropping
// useless neighbors (Appendix E), and decaying its TTL (rule III) — steering
// the network toward a globally efficient topology with no central
// coordinator.
type AdaptiveOptions struct {
	// Limit is the load each super-peer is willing to handle (the paper's
	// "limited altruism" assumption).
	Limit analysis.Load
	// Thresholds tune the advisor; zero values select the defaults.
	Thresholds design.Thresholds
	// Interval is the local evaluation period in seconds (default 60).
	Interval float64
	// MaxOutdegree caps rule II's neighbor growth (default 30).
	MaxOutdegree int
	// ArrivalRate is the rate (clients/second) at which brand-new clients
	// arrive and ask a random super-peer for admission, exercising rule I
	// under population growth. Zero disables arrivals.
	ArrivalRate float64
}

func (o *AdaptiveOptions) interval() float64 {
	if o.Interval <= 0 {
		return 60
	}
	return o.Interval
}

func (o *AdaptiveOptions) maxOutdegree() int {
	if o.MaxOutdegree <= 0 {
		return 30
	}
	return o.MaxOutdegree
}

// adaptiveState is one cluster's local bookkeeping between evaluations.
type adaptiveState struct {
	lastIn, lastOut, lastProc float64 // counter snapshots at the last eval
	lastEvalAt                float64
	probed                    *clusterNode // the neighbor the policy is probing
	policy                    *design.Policy
}

// The simulator acts on the first decision that signals a shed or
// coalesce and holds no cooldown: each decision already spans a whole
// evaluation interval.
const (
	simSustain  = 1
	simCooldown = 0
)

// noteSourceQuery and noteSourceResponse feed the local observations the
// adaptive rules depend on; they are called from the protocol path.
func (s *Simulator) noteSourceQuery(c *clusterNode, localResults int) {
	if c.adaptive != nil {
		c.adaptive.policy.NoteQuery(localResults)
	}
}

func (s *Simulator) noteSourceResponse(c *clusterNode, msg respMsg) {
	if c.adaptive != nil {
		c.adaptive.policy.NoteResponse(msg.results, msg.hops)
	}
}

// scheduleAdaptive installs the periodic local evaluation for one cluster
// and, once per simulation, the new-client arrival process.
func (s *Simulator) scheduleAdaptive(c *clusterNode) {
	c.adaptive = &adaptiveState{lastEvalAt: s.sched.now,
		policy: design.NewPolicy(s.opts.Adaptive.Thresholds, simSustain, simCooldown)}
	c.adaptive.policy.SetClients(len(c.clients))
	var tick func()
	tick = func() {
		if c.dissolved() {
			return
		}
		s.adaptiveEvaluate(c)
		s.sched.schedule(s.opts.Adaptive.interval(), tick)
	}
	// Phase-shift evaluations so clusters do not act in lockstep.
	s.sched.schedule(s.rng.Float64()*s.opts.Adaptive.interval(), tick)

	if !s.arrivalsScheduled && s.opts.Adaptive.ArrivalRate > 0 {
		s.arrivalsScheduled = true
		s.scheduleGuardedProcess(s.opts.Adaptive.ArrivalRate,
			func() bool { return true }, s.newClientArrival)
	}
}

// observedLoad returns the cluster's mean per-partner load since the last
// evaluation, and snapshots the counters.
func (s *Simulator) observedLoad(c *clusterNode) analysis.Load {
	st := c.adaptive
	var in, out, proc float64
	for _, p := range c.partners {
		in += p.counters.bytesIn
		out += p.counters.bytesOut
		proc += p.counters.procU
	}
	dt := s.sched.now - st.lastEvalAt
	if dt <= 0 {
		dt = 1
	}
	k := float64(len(c.partners))
	load := analysis.Load{
		InBps:  (in - st.lastIn) * 8 / dt / k,
		OutBps: (out - st.lastOut) * 8 / dt / k,
		ProcHz: cost.UnitsToHz(proc-st.lastProc) / dt / k,
	}
	st.lastIn, st.lastOut, st.lastProc = in, out, proc
	st.lastEvalAt = s.sched.now
	return load
}

// adaptiveEvaluate runs one Section 5.3 decision round for a cluster and
// carries out the policy's decision.
func (s *Simulator) adaptiveEvaluate(c *clusterNode) {
	st := c.adaptive
	d := st.policy.Step(design.Observation{
		Load:      s.observedLoad(c),
		Limit:     s.opts.Adaptive.Limit,
		Clients:   len(c.clients),
		Outdegree: len(c.neighbors),
		TTL:       c.ttl,
	})
	c.acceptingClients = d.Accept

	if d.DropProbed && !st.probed.dissolved() {
		s.removeEdge(c, st.probed)
	}

	acted := true
	switch {
	case d.Shed && len(c.partners) == 1 && len(c.clients) >= 2:
		s.promotePartner(c)
	case d.Shed && len(c.partners) > 1 && len(c.clients) >= 4:
		// Already redundant and still overloaded: split instead.
		s.splitCluster(c)
	case d.Coalesce:
		s.tryCoalesce(c)
	default:
		acted = false
	}
	if acted {
		st.policy.Acted()
		st.policy.SetClients(len(c.clients))
	}

	if d.AddNeighbor && len(c.neighbors) < s.opts.Adaptive.maxOutdegree() {
		if nb := s.randomNonNeighbor(c); nb != nil {
			s.addEdge(c, nb)
			st.probed = nb
			st.policy.NeighborAdded()
		}
	}
	c.ttl = d.NewTTL
}

// newClientArrival models the bootstrap path: a fresh client asks a random
// super-peer ("pong server" style) for admission; per rule I super-peers
// accept unless overloaded, in which case the client retries elsewhere.
func (s *Simulator) newClientArrival() {
	prof := s.prof
	for attempts := 0; attempts < 5; attempts++ {
		target := s.clusters[s.rng.Intn(len(s.clusters))]
		if target.dissolved() || !target.acceptingClients {
			continue
		}
		c := &clientNode{
			cluster:  target,
			files:    prof.Files.Sample(s.rng),
			lifespan: prof.Lifespans.Sample(s.rng),
		}
		target.clients = append(target.clients, c)
		s.clientJoin(c)
		s.startClientProcesses(c, false)
		return
	}
}

// promotePartner converts the most capable client into a second super-peer
// partner (rule I's preferred overload response; rule #2 says redundancy is
// good). Every remaining client ships its metadata to the new partner, and
// the existing partner hands over its own collection.
func (s *Simulator) promotePartner(c *clusterNode) {
	cl := s.detachLargestClient(c)
	if cl == nil {
		return
	}
	p := &partnerNode{cluster: c, files: cl.files, lifespan: cl.lifespan}
	c.partners = append(c.partners, p)
	c.targetPartners = len(c.partners)
	cl.cluster = nil // retire the client slot; its processes stop

	for _, other := range c.clients {
		s.clientJoinOne(other, p)
	}
	s.partnerRejoin(c.partners[0])
	s.startPartnerProcesses(p, false)
}

// splitCluster promotes a client to super-peer of a brand-new cluster and
// moves half the clients there (rule I's alternative overload response).
func (s *Simulator) splitCluster(c *clusterNode) {
	seedClient := s.detachLargestClient(c)
	if seedClient == nil {
		return
	}
	nc := &clusterNode{
		id:               len(s.clusters),
		seen:             make(map[uint64]seenEntry),
		neighbors:        make(map[int]*clusterNode),
		ttl:              c.ttl,
		acceptingClients: true,
	}
	sp := &partnerNode{cluster: nc, files: seedClient.files, lifespan: seedClient.lifespan}
	nc.partners = []*partnerNode{sp}
	nc.targetPartners = 1
	seedClient.cluster = nil
	s.clusters = append(s.clusters, nc)

	// Move half the clients (the cluster keeps the rest).
	move := len(c.clients) / 2
	for i := 0; i < move; i++ {
		cl := c.clients[len(c.clients)-1]
		c.clients = c.clients[:len(c.clients)-1]
		cl.cluster = nil // retire the old slot
		moved := &clientNode{cluster: nc, files: cl.files, lifespan: cl.lifespan}
		nc.clients = append(nc.clients, moved)
		s.clientJoin(moved)
		s.startClientProcesses(moved, false)
	}

	// Wire the new cluster into the overlay: to its origin and a couple of
	// the origin's neighbors.
	s.addEdge(nc, c)
	added := 0
	c.forEachNeighbor(func(nb *clusterNode) {
		if nb == nc || added >= 2 {
			return
		}
		s.addEdge(nc, nb)
		added++
	})
	s.startPartnerProcesses(sp, false)
	s.scheduleSeenCleanup(nc)
	if s.opts.Adaptive != nil {
		s.scheduleAdaptive(nc)
	}
}

// tryCoalesce merges the smallest underloaded neighbor cluster into c
// (rule I's underload response): the neighbor's super-peer resigns to
// client, and its clients re-join c.
func (s *Simulator) tryCoalesce(c *clusterNode) {
	var smallest *clusterNode
	c.forEachNeighbor(func(nb *clusterNode) {
		if len(nb.partners) != 1 {
			return // don't dissolve redundant clusters
		}
		if smallest == nil || len(nb.clients) < len(smallest.clients) {
			smallest = nb
		}
	})
	if smallest == nil || len(smallest.clients) > len(c.clients) {
		return // only absorb clusters no larger than ourselves
	}

	// Move the neighbor's clients over.
	for _, cl := range smallest.clients {
		cl.cluster = nil
		moved := &clientNode{cluster: c, files: cl.files, lifespan: cl.lifespan}
		c.clients = append(c.clients, moved)
		s.clientJoin(moved)
		s.startClientProcesses(moved, false)
	}
	smallest.clients = nil

	// The neighbor's super-peer resigns to client of c.
	old := smallest.partners[0]
	resigned := &clientNode{cluster: c, files: old.files, lifespan: old.lifespan}
	c.clients = append(c.clients, resigned)
	s.clientJoin(resigned)
	s.startClientProcesses(resigned, false)

	// Rewire: the dissolved cluster's neighbors connect to c so the overlay
	// stays connected, then it leaves the overlay.
	smallest.partners = nil // marks the cluster dissolved
	for _, nb := range neighborList(smallest) {
		s.removeEdge(smallest, nb)
		if nb != c {
			s.addEdge(c, nb)
		}
	}
}

// detachLargestClient removes and returns the client sharing the most files
// ("select a capable client").
func (s *Simulator) detachLargestClient(c *clusterNode) *clientNode {
	best := -1
	for i, cl := range c.clients {
		if best < 0 || cl.files > c.clients[best].files {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	cl := c.clients[best]
	c.clients = append(c.clients[:best], c.clients[best+1:]...)
	return cl
}

// randomNonNeighbor picks a random live cluster that is not yet a neighbor.
func (s *Simulator) randomNonNeighbor(c *clusterNode) *clusterNode {
	for attempts := 0; attempts < 8; attempts++ {
		cand := s.clusters[s.rng.Intn(len(s.clusters))]
		if cand == c || cand.dissolved() {
			continue
		}
		if _, ok := c.neighbors[cand.id]; ok {
			continue
		}
		return cand
	}
	return nil
}

// addEdge / removeEdge keep the overlay symmetric.
func (s *Simulator) addEdge(a, b *clusterNode) {
	if a == b {
		return
	}
	a.neighbors[b.id] = b
	b.neighbors[a.id] = a
}

func (s *Simulator) removeEdge(a, b *clusterNode) {
	delete(a.neighbors, b.id)
	delete(b.neighbors, a.id)
}

// neighborList snapshots a cluster's neighbors in deterministic order.
func neighborList(c *clusterNode) []*clusterNode {
	out := make([]*clusterNode, 0, len(c.neighbors))
	c.forEachNeighbor(func(nb *clusterNode) { out = append(out, nb) })
	return out
}
