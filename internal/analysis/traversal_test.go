package analysis

import (
	"math"
	"testing"

	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/topology"
)

// interfaceOnly hides the instance's *topology.AdjGraph behind the Graph
// interface, forcing the engine's VisitNeighbors fallback.
type interfaceOnly struct{ topology.Graph }

// TestCSRPathMatchesFallback: walking CSR neighbor lists directly must give
// the same float sequence, bit for bit, as the VisitNeighbors fallback — on
// the flood path, a strategy model and dishonest relays.
func TestCSRPathMatchesFallback(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.GraphSize = 2000
	inst := generate(t, cfg, nil, 7)
	if _, ok := inst.Graph.(*topology.AdjGraph); !ok {
		t.Fatalf("power-law instance graph is %T, want *topology.AdjGraph", inst.Graph)
	}
	opaque := *inst
	opaque.Graph = interfaceOnly{inst.Graph}

	walk := routing.RandomWalkForwards(2)
	for _, tc := range []struct {
		name string
		eval func(*network.Instance) *Result
	}{
		{"Evaluate", Evaluate},
		{"EvaluateStrategy", func(i *network.Instance) *Result { return EvaluateStrategy(i, walk) }},
		{"EvaluateAdversarial", func(i *network.Instance) *Result { return EvaluateAdversarial(i, nil, 0.7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assertSameBits(t, tc.eval(inst), tc.eval(&opaque))
		})
	}
}

// assertSameBits compares every exported metric and per-node load of two
// evaluations of the same instance by their float64 bit patterns.
func assertSameBits(t *testing.T, a, b *Result) {
	t.Helper()
	same := func(what string, x, y float64) {
		t.Helper()
		if math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: %v vs %v", what, x, y)
		}
	}
	sameLoad := func(what string, x, y Load) {
		t.Helper()
		same(what+".InBps", x.InBps, y.InBps)
		same(what+".OutBps", x.OutBps, y.OutBps)
		same(what+".ProcHz", x.ProcHz, y.ProcHz)
	}
	same("ResultsPerQuery", a.ResultsPerQuery, b.ResultsPerQuery)
	same("EPL", a.EPL, b.EPL)
	same("MeanReachClusters", a.MeanReachClusters, b.MeanReachClusters)
	same("MeanReachPeers", a.MeanReachPeers, b.MeanReachPeers)
	same("QueryForwardsPerQuery", a.QueryForwardsPerQuery, b.QueryForwardsPerQuery)
	for v := range a.Inst.Clusters {
		sameLoad("SuperPeerLoad", a.SuperPeerLoad(v), b.SuperPeerLoad(v))
		same("SourceResults", a.SourceResults(v), b.SourceResults(v))
		ca, cb := a.SuperPeerClassBps(v), b.SuperPeerClassBps(v)
		for c := range ca {
			for d := range ca[c] {
				same("SuperPeerClassBps", ca[c][d], cb[c][d])
			}
		}
		for i := range a.Inst.Clusters[v].Clients {
			sameLoad("ClientLoad", a.ClientLoad(v, i), b.ClientLoad(v, i))
		}
	}
	ba, bb := a.LoadBreakdown(), b.LoadBreakdown()
	sameLoad("QueryTransfer", ba.QueryTransfer, bb.QueryTransfer)
	sameLoad("QueryProcessing", ba.QueryProcessing, bb.QueryProcessing)
	sameLoad("ResponseTransfer", ba.ResponseTransfer, bb.ResponseTransfer)
	sameLoad("Joins", ba.Joins, bb.Joins)
	sameLoad("Updates", ba.Updates, bb.Updates)
	sameLoad("PacketMultiplex", ba.PacketMultiplex, bb.PacketMultiplex)
}

// TestEvaluateAllocsPerCluster: on a Table 1 instance (10,000 peers, 1,000
// clusters, TTL 7) Evaluate allocates per cluster, not per BFS edge.
func TestEvaluateAllocsPerCluster(t *testing.T) {
	inst := generate(t, network.DefaultConfig(), nil, 1)
	clusters := len(inst.Clusters)
	allocs := testing.AllocsPerRun(3, func() { Evaluate(inst) })
	if limit := float64(3*clusters + 64); allocs > limit {
		t.Errorf("Evaluate allocates %.0f per run on %d clusters, want <= %.0f", allocs, clusters, limit)
	}
}
