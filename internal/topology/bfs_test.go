package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"spnet/internal/stats"
)

func TestBFSPathGraph(t *testing.T) {
	g := pathGraph(t, 6) // 0-1-2-3-4-5
	res := BFS(g, 0, -1, 0)
	if res.Reach() != 6 {
		t.Fatalf("Reach = %d, want 6", res.Reach())
	}
	for v := 0; v < 6; v++ {
		if int(res.Depth[v]) != v {
			t.Errorf("Depth[%d] = %d, want %d", v, res.Depth[v], v)
		}
	}
	for v := 1; v < 6; v++ {
		if int(res.Parent[v]) != v-1 {
			t.Errorf("Parent[%d] = %d, want %d", v, res.Parent[v], v-1)
		}
	}
	if res.Parent[0] != -1 {
		t.Errorf("Parent[source] = %d, want -1", res.Parent[0])
	}
	if res.MaxDepth() != 5 {
		t.Errorf("MaxDepth = %d, want 5", res.MaxDepth())
	}
}

func TestBFSTTLCutoff(t *testing.T) {
	g := pathGraph(t, 10)
	for ttl := 0; ttl < 10; ttl++ {
		res := BFS(g, 0, ttl, 0)
		if got, want := res.Reach(), ttl+1; got != want {
			t.Errorf("ttl %d: reach %d, want %d", ttl, got, want)
		}
	}
}

func TestBFSMaxNodesCutoff(t *testing.T) {
	g := pathGraph(t, 10)
	res := BFS(g, 0, -1, 4)
	if res.Reach() != 4 {
		t.Errorf("Reach = %d, want 4", res.Reach())
	}
}

func TestBFSUnreachableMarked(t *testing.T) {
	g := mustGraph(t, 4, [][2]int{{0, 1}}) // 2, 3 isolated
	res := BFS(g, 0, -1, 0)
	if res.Depth[2] != -1 || res.Parent[2] != -1 {
		t.Errorf("unreached node has Depth=%d Parent=%d", res.Depth[2], res.Parent[2])
	}
	if res.Reach() != 2 {
		t.Errorf("Reach = %d, want 2", res.Reach())
	}
}

func TestBFSOrderIsByDepth(t *testing.T) {
	g, err := PowerLaw(PLODParams{N: 300, AvgDeg: 4}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	res := BFS(g, 0, -1, 0)
	for i := 1; i < len(res.Order); i++ {
		if res.Depth[res.Order[i]] < res.Depth[res.Order[i-1]] {
			t.Fatal("BFS order not monotone in depth")
		}
	}
}

func TestBFSParentDepthInvariantProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, srcRaw uint8) bool {
		g, err := PowerLaw(PLODParams{N: 150, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		src := int(srcRaw) % g.N()
		res := BFS(g, src, 5, 0)
		for _, v := range res.Order {
			if int(v) == src {
				continue
			}
			p := res.Parent[v]
			if p < 0 {
				return false
			}
			if res.Depth[v] != res.Depth[p]+1 {
				return false
			}
			if !g.HasEdge(int(v), int(p)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReachMonotoneInTTLProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		g, err := PowerLaw(PLODParams{N: 200, AvgDeg: 3.1}, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		prev := 0
		for ttl := 0; ttl <= 8; ttl++ {
			r := ReachForTTL(g, 0, ttl)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestReachForTTLClique(t *testing.T) {
	c := NewClique(100)
	if got := ReachForTTL(c, 0, 0); got != 1 {
		t.Errorf("ttl 0 reach = %d, want 1", got)
	}
	if got := ReachForTTL(c, 0, 1); got != 100 {
		t.Errorf("ttl 1 reach = %d, want 100", got)
	}
	if got := ReachForTTL(c, 0, 7); got != 100 {
		t.Errorf("ttl 7 reach = %d, want 100", got)
	}
}

func TestEPLForReachPath(t *testing.T) {
	g := pathGraph(t, 11)
	// Reach 11 from node 0: depths 1..10 over 10 nodes, mean 5.5.
	if got := EPLForReach(g, 0, 11); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("EPL = %v, want 5.5", got)
	}
	// Reach 3: depths 1, 2 -> mean 1.5.
	if got := EPLForReach(g, 0, 3); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("EPL = %v, want 1.5", got)
	}
}

func TestEPLForReachClique(t *testing.T) {
	if got := EPLForReach(NewClique(50), 0, 50); got != 1 {
		t.Errorf("clique EPL = %v, want 1", got)
	}
}

func TestEPLForReachDegenerate(t *testing.T) {
	g := pathGraph(t, 3)
	if !math.IsNaN(EPLForReach(g, 0, 1)) {
		t.Error("reach 1 should be NaN")
	}
}

func TestEPLDecreasesWithOutdegree(t *testing.T) {
	// Rule of thumb #3 backbone: EPL falls as average outdegree rises.
	epl := func(avgDeg float64) float64 {
		var sum float64
		const trials = 3
		for s := uint64(0); s < trials; s++ {
			g, err := PowerLaw(PLODParams{N: 1500, AvgDeg: avgDeg}, stats.NewRNG(10+s))
			if err != nil {
				t.Fatal(err)
			}
			sum += EPLForReach(g, 0, 500)
		}
		return sum / trials
	}
	lo, hi := epl(3.1), epl(10)
	if hi >= lo {
		t.Errorf("EPL(outdeg 10) = %v >= EPL(outdeg 3.1) = %v", hi, lo)
	}
}

func TestEPLApproxTracksMeasured(t *testing.T) {
	// Appendix F: log_d(reach) approximates (and lower-bounds) measured EPL.
	g, err := PowerLaw(PLODParams{N: 3000, AvgDeg: 10}, stats.NewRNG(20))
	if err != nil {
		t.Fatal(err)
	}
	measured := EPLForReach(g, 0, 500)
	approx := EPLApprox(10, 500)
	if measured < approx-0.3 {
		t.Errorf("measured EPL %v below approximation %v", measured, approx)
	}
	if measured > approx+2.5 {
		t.Errorf("measured EPL %v too far above approximation %v", measured, approx)
	}
}

func TestMinTTLForFullReach(t *testing.T) {
	g := pathGraph(t, 8)
	if got := MinTTLForFullReach(g, 0); got != 7 {
		t.Errorf("path MinTTL = %d, want 7", got)
	}
	if got := MinTTLForFullReach(g, 3); got != 4 {
		t.Errorf("mid-path MinTTL = %d, want 4", got)
	}
	if got := MinTTLForFullReach(NewClique(40), 0); got != 1 {
		t.Errorf("clique MinTTL = %d, want 1", got)
	}
	single := mustGraph(t, 1, nil)
	if got := MinTTLForFullReach(single, 0); got != 0 {
		t.Errorf("single-node MinTTL = %d, want 0", got)
	}
}

func TestTreeReachBound(t *testing.T) {
	if got := TreeReachBound(3, 0); got != 1 {
		t.Errorf("ttl 0: %v, want 1", got)
	}
	// d=3, ttl=2: 1 + 3 + 3*2 = 10.
	if got := TreeReachBound(3, 2); got != 10 {
		t.Errorf("d=3 ttl=2: %v, want 10", got)
	}
	// Section 5.2: 18 neighbors, TTL 2 bounds reach near 18²+18 ≈ 342.
	if got := TreeReachBound(18, 2); got < 300 || got > 360 {
		t.Errorf("d=18 ttl=2: %v, want ~325", got)
	}
	if !math.IsInf(TreeReachBound(10, 100), 1) {
		t.Error("huge tree should overflow to +Inf")
	}
}

func TestEPLApproxDegenerate(t *testing.T) {
	if !math.IsNaN(EPLApprox(1, 100)) {
		t.Error("d=1 should be NaN")
	}
	if !math.IsNaN(EPLApprox(5, 1)) {
		t.Error("reach 1 should be NaN")
	}
}

// interfaceOnly hides a graph's concrete type, forcing Run's VisitNeighbors
// fallback.
type interfaceOnly struct{ Graph }

// TestRunReuseMatchesFreshBFS drives one scratch through every source with
// mixed TTL and maxNodes bounds, over both the CSR path and the
// VisitNeighbors fallback: each run must equal a traversal into fresh
// scratch, so Reset leaves nothing behind.
func TestRunReuseMatchesFreshBFS(t *testing.T) {
	g, err := PowerLaw(PLODParams{N: 300, AvgDeg: 3.1}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	bounds := [][2]int{{7, 0}, {2, 0}, {-1, 0}, {-1, 40}, {0, 0}, {3, 1}}
	csr, fallback := NewBFSResult(g.N()), NewBFSResult(g.N())
	for src := 0; src < g.N(); src++ {
		ttl, maxNodes := bounds[src%len(bounds)][0], bounds[src%len(bounds)][1]
		want := BFS(g, src, ttl, maxNodes)
		csr.Run(g, src, ttl, maxNodes)
		fallback.Run(interfaceOnly{g}, src, ttl, maxNodes)
		for name, got := range map[string]*BFSResult{"csr": csr, "fallback": fallback} {
			if got.Source != src || !slices.Equal(got.Order, want.Order) ||
				!slices.Equal(got.Depth, want.Depth) || !slices.Equal(got.Parent, want.Parent) {
				t.Fatalf("%s run from %d (ttl %d, max %d) differs from a fresh BFS", name, src, ttl, maxNodes)
			}
		}
	}
}

// TestRunAllocFree: once its scratch is warm, the kernel allocates nothing
// on a CSR graph.
func TestRunAllocFree(t *testing.T) {
	g, err := PowerLaw(PLODParams{N: 1000, AvgDeg: 3.1}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	r := NewBFSResult(g.N())
	r.Run(g, 0, 7, 0)
	if allocs := testing.AllocsPerRun(10, func() {
		for v := 0; v < g.N(); v++ {
			r.Run(g, v, 7, 0)
		}
	}); allocs != 0 {
		t.Errorf("warm Run allocates %.1f per sweep, want 0", allocs)
	}
}

// BenchmarkBFS measures the analysis traversal: one TTL-7 BFS from every
// source of a 1000-node PLOD graph (the Table 1 overlay), into fresh
// scratch (BFS) and into one reused scratch (Run).
func BenchmarkBFS(b *testing.B) {
	g, err := PowerLaw(PLODParams{N: 1000, AvgDeg: 3.1}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("BFS", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.N(); v++ {
				BFS(g, v, 7, 0)
			}
		}
	})
	b.Run("Run", func(b *testing.B) {
		r := NewBFSResult(g.N())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < g.N(); v++ {
				r.Run(g, v, 7, 0)
			}
		}
	})
}
