package design

import "spnet/internal/analysis"

// Policy is one super-peer's Section 5.3 decision loop: Advise plus the
// state the rules need between decisions. It keeps the rule III response
// horizon, the Appendix E neighbor probe, the previous cluster size behind
// rule II, and hysteresis on the shed and coalesce signals. Both the
// simulator's adaptive clusters and the fleet controller drive it; each
// layer decides how to carry out the Decision.
type Policy struct {
	th       Thresholds
	sustain  int // decisions a shed/coalesce signal must persist
	cooldown int // decisions load actions are held after one took effect

	over, under int // consecutive decisions with a shed / coalesce signal
	cooling     int // decisions left before load actions resume
	prevClients int

	// Results per query since the last decision: the probe's baseline.
	queries int
	results float64

	// Rule III horizon window. It spans decisions until enough of the
	// super-peer's own queries were seen to trust the farthest response.
	windowQueries int
	windowMaxHops int

	// Appendix E probe of the last neighbor added.
	probing       bool
	resultsBefore float64
	probeQueries  int
	probeResults  float64
}

// Policy's judgment thresholds: a probe is judged after probeMinQueries
// own queries and must raise results per query by more than probeMargin; a
// horizon needs horizonMinQueries own queries before rule III acts on it.
const (
	probeMinQueries   = 20
	probeMargin       = 1.02
	horizonMinQueries = 30
)

// NewPolicy returns a policy with the given thresholds. A shed or coalesce
// signal must hold for sustain consecutive decisions before Step acts on
// it, and load actions are held for cooldown decisions after one took
// effect. Rule II's growth signal compares each observed client count with
// the previous one; the first Step only sets that baseline, and a layer
// whose cluster size changes between decisions reports it with SetClients.
func NewPolicy(th Thresholds, sustain, cooldown int) *Policy {
	return &Policy{th: th, sustain: sustain, cooldown: cooldown, prevClients: -1}
}

// Observation is what a super-peer measures at a decision.
type Observation struct {
	Load, Limit analysis.Load
	Clients     int
	Outdegree   int
	TTL         int
}

// Decision is what Step recommends.
type Decision struct {
	// Accept: keep admitting new clients (rule I).
	Accept bool
	// Shed: the overload signal held for the sustain count; promote a
	// partner or split the cluster.
	Shed bool
	// Coalesce: the underload signal held for the sustain count; merge
	// with another small cluster.
	Coalesce bool
	// AddNeighbor: grow outdegree (rule II). Report a real addition with
	// NeighborAdded, which starts the Appendix E probe.
	AddNeighbor bool
	// DropProbed: the probed neighbor brought no new results; drop it.
	DropProbed bool
	// NewTTL is the TTL to stamp from now on, at most one hop below the
	// observed TTL (rule III).
	NewTTL int
}

// NoteQuery records one query this super-peer sourced and the results its
// own index returned.
func (p *Policy) NoteQuery(localResults int) {
	p.queries++
	p.results += float64(localResults)
	p.windowQueries++
	if p.probing {
		p.probeQueries++
		p.probeResults += float64(localResults)
	}
}

// NoteResponse records a response to one of this super-peer's own queries,
// carrying results found hops away.
func (p *Policy) NoteResponse(results, hops int) {
	p.results += float64(results)
	p.windowMaxHops = max(p.windowMaxHops, hops)
	if p.probing {
		p.probeResults += float64(results)
	}
}

// Step makes one decision from the observation and the queries and
// responses noted since the last one.
func (p *Policy) Step(o Observation) Decision {
	resultsPerQuery := 0.0
	if p.queries > 0 {
		resultsPerQuery = p.results / float64(p.queries)
	}
	probeReady := p.probing && p.probeQueries >= probeMinQueries
	maxRespHops := 0
	if p.windowQueries >= horizonMinQueries {
		maxRespHops = p.windowMaxHops
	}
	adv := Advise(LocalState{
		Load:                       o.Load,
		Limit:                      o.Limit,
		Clients:                    o.Clients,
		Outdegree:                  o.Outdegree,
		TTL:                        o.TTL,
		MaxRespHops:                maxRespHops,
		ClusterGrowing:             p.prevClients >= 0 && o.Clients > p.prevClients,
		ProbedNeighbor:             probeReady,
		GainedResultsAfterNeighbor: probeReady && p.probeResults/float64(p.probeQueries) > p.resultsBefore*probeMargin,
	}, p.th)
	d := Decision{Accept: adv.AcceptClients, DropProbed: adv.DropProbedNeighbor, NewTTL: o.TTL}

	if probeReady {
		p.probing, p.probeQueries, p.probeResults = false, 0, 0
	}
	if !p.probing {
		p.resultsBefore = resultsPerQuery
	}
	d.AddNeighbor = adv.AddNeighbor && !p.probing

	if p.cooling > 0 {
		p.cooling--
	} else {
		switch {
		case adv.PromotePartner || adv.SplitCluster || adv.Resign:
			p.over, p.under = p.over+1, 0
		case adv.TryCoalesce:
			p.over, p.under = 0, p.under+1
		default:
			p.over, p.under = 0, 0
		}
		d.Shed = p.over >= p.sustain
		d.Coalesce = p.under >= p.sustain
	}

	// Decay at most one hop per decision, so a noisy window cannot
	// collapse the reach; a checked or acted-on window starts afresh.
	if adv.NewTTL < o.TTL {
		d.NewTTL = o.TTL - 1
	}
	if adv.NewTTL < o.TTL || p.windowQueries >= horizonMinQueries {
		p.windowQueries, p.windowMaxHops = 0, 0
	}

	p.prevClients = o.Clients
	p.queries, p.results = 0, 0
	return d
}

// Acted reports that the decided shed or coalesce took effect. It starts
// the cooldown; a decision that did not take effect is simply made again
// at the next Step.
func (p *Policy) Acted() {
	p.over, p.under = 0, 0
	p.cooling = p.cooldown
}

// SetClients sets the client count the next Step judges cluster growth
// against, for a cluster whose size changed outside Step (it was just
// created, or a shed or coalesce moved clients).
func (p *Policy) SetClients(clients int) {
	p.prevClients = clients
}

// NeighborAdded reports that the decided neighbor was really added; the
// probe then compares results per query against the last decision's.
func (p *Policy) NeighborAdded() {
	p.probing, p.probeQueries, p.probeResults = true, 0, 0
}

// Reset clears the sustain counters after a decision that could not be
// made (the super-peer is dead or its load unmeasured). The cooldown is
// not spent.
func (p *Policy) Reset() {
	p.over, p.under = 0, 0
}
