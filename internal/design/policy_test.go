package design

import "testing"

// observe returns an observation at the given fraction of limit(), for a
// stable two-client cluster with three neighbors.
func observe(u float64, ttl int) Observation {
	return Observation{Load: limit().Scale(u), Limit: limit(), Clients: 2, Outdegree: 3, TTL: ttl}
}

// Load levels against the default thresholds.
const (
	over  = 1.5  // ≥ Overload: shed
	under = 0.05 // ≤ Coalesce: coalesce
	calm  = 0.5  // between the two, below Spare
)

func TestPolicyHysteresis(t *testing.T) {
	// One step of a sequence: Reset instead of Step when reset is set;
	// otherwise Step at load u, expect shed/coalesce, then Acted if ack.
	type step struct {
		u              float64
		reset, ack     bool
		shed, coalesce bool
	}
	for _, c := range []struct {
		name  string
		steps []step
	}{
		{"blip ignored, sustained acts, cooldown skips three", []step{
			{u: over}, {u: calm}, {u: over},
			{u: over, shed: true, ack: true},
			{u: over}, {u: over}, {u: over},
			{u: over}, {u: over, shed: true},
		}},
		{"un-acked shed re-fires", []step{
			{u: over}, {u: over, shed: true}, {u: over, shed: true},
		}},
		{"sustained underload coalesces", []step{
			{u: under}, {u: under, coalesce: true, ack: true}, {u: under},
		}},
		{"signal switch restarts the count", []step{
			{u: over}, {u: under}, {u: under, coalesce: true},
		}},
		{"reset clears counters, keeps cooldown", []step{
			{u: over}, {reset: true}, {u: over},
			{u: over, shed: true, ack: true},
			{reset: true}, {reset: true},
			{u: over}, {u: over}, {u: over},
			{u: over}, {u: over, shed: true},
		}},
	} {
		p := NewPolicy(Thresholds{}, 2, 3)
		for i, s := range c.steps {
			if s.reset {
				p.Reset()
				continue
			}
			d := p.Step(observe(s.u, 7))
			if d.Shed != s.shed || d.Coalesce != s.coalesce {
				t.Errorf("%s: step %d: shed=%v coalesce=%v, want %v %v",
					c.name, i, d.Shed, d.Coalesce, s.shed, s.coalesce)
			}
			if s.ack {
				p.Acted()
			}
		}
	}
}

func TestPolicyNeighborProbe(t *testing.T) {
	// Before the probe: 10 results per query. During it: probeQueries own
	// queries at 10 local results each, plus extra results from responses.
	for _, c := range []struct {
		name         string
		probeQueries int
		extra        int
		judged, drop bool
	}{
		{"19 queries: not judged", 19, 100, false, false},
		{"no gain: drop", 20, 0, true, true},
		{"1% gain: drop", 20, 2, true, true},
		{"2.5% gain: keep", 20, 5, true, false},
	} {
		p := NewPolicy(Thresholds{}, 1, 0)
		for i := 0; i < 10; i++ {
			p.NoteQuery(10)
		}
		if d := p.Step(observe(calm, 7)); !d.AddNeighbor {
			t.Fatalf("%s: spare capacity should add a neighbor", c.name)
		}
		p.NeighborAdded()
		for i := 0; i < c.probeQueries; i++ {
			p.NoteQuery(10)
		}
		p.NoteResponse(c.extra, 1)
		d := p.Step(observe(calm, 7))
		if d.DropProbed != c.drop {
			t.Errorf("%s: DropProbed = %v, want %v", c.name, d.DropProbed, c.drop)
		}
		// While a probe is pending no further neighbor is proposed; once it
		// is judged, a kept neighbor frees rule II to add the next one.
		if want := c.judged && !c.drop; d.AddNeighbor != want {
			t.Errorf("%s: AddNeighbor = %v, want %v", c.name, d.AddNeighbor, want)
		}
	}
}

func TestPolicyHorizonWindow(t *testing.T) {
	// Responses never come from beyond 3 hops. Each step notes queries own
	// queries (one response at 3 hops) and feeds back the last NewTTL.
	p := NewPolicy(Thresholds{}, 1, 0)
	ttl := 7
	for i, s := range []struct{ queries, want int }{
		{29, 7}, // window too small: held
		{1, 6},  // 30 queries across two decisions: one hop down
		{0, 6},  // the window restarted: held
		{30, 5},
		{30, 4},
		{30, 3}, // reached the horizon
		{30, 3}, // and stays there
	} {
		for q := 0; q < s.queries; q++ {
			p.NoteQuery(0)
		}
		if s.queries > 0 {
			p.NoteResponse(1, 3)
		}
		ttl = p.Step(observe(calm, ttl)).NewTTL
		if ttl != s.want {
			t.Errorf("step %d: TTL = %d, want %d", i, ttl, s.want)
		}
	}
}

func TestPolicyClusterGrowthDefersNeighbors(t *testing.T) {
	p := NewPolicy(Thresholds{}, 1, 0)
	o := observe(calm, 7)
	if !p.Step(o).AddNeighbor {
		t.Error("the first decision only sets the growth baseline")
	}
	o.Clients = 5
	if p.Step(o).AddNeighbor {
		t.Error("a growing cluster should defer rule II")
	}
	if !p.Step(o).AddNeighbor {
		t.Error("a stable cluster should add a neighbor")
	}
	p.SetClients(2) // the cluster shed clients; back to 5 is growth again
	if p.Step(o).AddNeighbor {
		t.Error("growth after a resize should defer rule II")
	}
}
