package experiments

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/p2p"
	"spnet/internal/sim"
	"spnet/internal/topology"
)

// loadProbeTerm is the common query term of the validation workload; every
// live client shares exactly one file matching it, so expected results per
// cluster are known in closed form.
const loadProbeTerm = "needle"

// LoadValidationParams shape the model-vs-measured load validation: the same
// small deterministic network is evaluated analytically, simulated, and run
// as real TCP super-peers with telemetry scraped over HTTP, then the three
// per-super-peer bandwidth measurements are laid side by side.
//
// The configuration is chosen so all three layers describe the same system
// exactly: k = 1 (the live flood sends to every partner of every neighbor,
// which equals the model only when each neighbor has one partner), a clique
// overlay (Clusters super-peers fully linked, wired live from the instance's
// own graph), a single query class matching every collection with
// probability 1, updates disabled, and effectively infinite lifespans so the
// one-shot live joins mirror the model's zero join rate.
// Query and response traffic — the paper's dominant Table 2 components — are
// the classes compared.
type LoadValidationParams struct {
	// Clusters is the number of single-partner super-peers (default 3).
	Clusters int
	// ClientsPerCluster is how many clients join each super-peer, each
	// sharing one matching file (default 3).
	ClientsPerCluster int
	// QueryRate is each user's Poisson query rate in queries per virtual
	// second; super-peers are users too (default 0.05).
	QueryRate float64
	// Duration is the live measurement window in virtual seconds
	// (default 900).
	Duration float64
	// TimeScale compresses virtual seconds into wall clock: wall =
	// virtual / TimeScale (default 120).
	TimeScale float64
	// QueryWindow is the wall-clock window each live search collects
	// results for (default 60ms).
	QueryWindow time.Duration
	// SimDuration is the simulator's run length in virtual seconds
	// (default 8000; longer than the live window since virtual time is
	// cheap and convergence helps).
	SimDuration float64
	// TTL is the query TTL (default 7; anything >= 2 gives full reach on
	// a small clique).
	TTL int
	// Seed drives the arrival schedules and the simulator.
	Seed uint64
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

func (p *LoadValidationParams) setDefaults() {
	if p.Clusters <= 0 {
		p.Clusters = 3
	}
	if p.ClientsPerCluster <= 0 {
		p.ClientsPerCluster = 3
	}
	if p.QueryRate <= 0 {
		p.QueryRate = 0.05
	}
	if p.Duration <= 0 {
		p.Duration = 900
	}
	if p.TimeScale <= 0 {
		p.TimeScale = 120
	}
	if p.QueryWindow <= 0 {
		p.QueryWindow = 60 * time.Millisecond
	}
	if p.SimDuration <= 0 {
		p.SimDuration = 8000
	}
	if p.TTL <= 0 {
		p.TTL = 7
	}
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
}

// loadValidationInstance plants the exactly-known instance all three layers
// run: a clique of one-partner clusters whose ClientsPerCluster clients share
// one matching file each, with a single query class that matches every file.
func loadValidationInstance(p *LoadValidationParams) (*network.Instance, error) {
	return plantedInstance(planted{
		graph:     topology.NewClique(p.Clusters),
		partners:  1,
		clients:   p.ClientsPerCluster,
		topics:    1,
		queryRate: p.QueryRate,
		term:      loadProbeTerm,
		ttl:       p.TTL,
	})
}

// LoadValidationRow is one super-peer's three-way bandwidth comparison, all
// values in bits per virtual second broken down by taxonomy class.
type LoadValidationRow struct {
	// ID is the live harness's stable super-peer label.
	ID string
	// Model is the analytical prediction (Result.SuperPeerClassBps).
	Model metrics.ByClass
	// Sim is the simulator's measurement (Measured.SuperPeerClassBps).
	Sim metrics.ByClass
	// Live is the telemetry-scraped measurement, converted to virtual
	// seconds through the time bridge. Only classes the model drives
	// (query, response) are meaningful for comparison.
	Live metrics.ByClass
}

// QueryRespBps sums the query and response classes of one column in one
// direction — the compared quantity.
func queryRespBps(b metrics.ByClass, d metrics.Dir) float64 {
	return b.Sum(d, metrics.ClassQuery, metrics.ClassResponse)
}

// LoadValidationResult carries the comparison rows alongside the printable
// report, for tests to assert tolerances on.
type LoadValidationResult struct {
	Rows   []LoadValidationRow
	Report *Report
}

// MaxRelErrLiveVsModel returns the worst relative error between live-measured
// and analytically predicted query+response bandwidth over all super-peers
// and directions.
func (r *LoadValidationResult) MaxRelErrLiveVsModel() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		for _, d := range []metrics.Dir{metrics.DirIn, metrics.DirOut} {
			if e := relErr(queryRespBps(row.Live, d), queryRespBps(row.Model, d)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}

// scrapeClassBytes fetches one super-peer's /metrics exposition and returns
// its per-class wire-byte totals.
func scrapeClassBytes(addr string) (metrics.ByClass, error) {
	var b metrics.ByClass
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return b, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("scrape %s: status %d", addr, resp.StatusCode)
	}
	vals, err := metrics.ParsePrometheus(resp.Body)
	if err != nil {
		return b, err
	}
	for c := 0; c < metrics.NumClasses; c++ {
		for d := 0; d < metrics.NumDirs; d++ {
			key := metrics.SeriesKey(metrics.MetricMessageBytes,
				metrics.Label{Name: "type", Value: metrics.Class(c).String()},
				metrics.Label{Name: "dir", Value: metrics.Dir(d).String()})
			b[c][d] = vals[key]
		}
	}
	return b, nil
}

// runLiveLoadCell boots the instance as a live fleet, drives the seeded
// workload, and returns each super-peer's measured per-class bandwidth in
// bits per virtual second, keyed in the harness's stable super-peer order.
func runLiveLoadCell(p *LoadValidationParams, inst *network.Instance) (ids []string, measured []metrics.ByClass, err error) {
	live := network.NewLive(network.LiveConfig{
		Partners:  1,
		Graph:     inst.Graph,
		Seed:      p.Seed,
		Telemetry: true,
		Node: p2p.Options{
			TTL:               p.TTL,
			HeartbeatInterval: -1, // keep the ping class quiet
			DrainTimeout:      200 * time.Millisecond,
		},
	})
	if err := live.Launch(); err != nil {
		return nil, nil, err
	}
	defer live.Close()
	if err := awaitWired(live, inst.Graph, 1); err != nil {
		return nil, nil, fmt.Errorf("loadvalidation: %w", err)
	}

	// Clients: each shares one file matching the probe term, mirroring the
	// planted instance's one-file collections.
	var clients []*p2p.Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for c := 0; c < p.Clusters; c++ {
		for i := 0; i < p.ClientsPerCluster; i++ {
			cl, err := p2p.DialClient(live.ClusterAddrs(c)[0], []p2p.SharedFile{
				{Index: uint32(i + 1), Title: fmt.Sprintf("%s c%dp%d", loadProbeTerm, c, i)},
			})
			if err != nil {
				return nil, nil, fmt.Errorf("live client %d/%d: %w", c, i, err)
			}
			clients = append(clients, cl)
		}
	}
	if err := awaitIndexed(live, p.Clusters*p.ClientsPerCluster); err != nil {
		return nil, nil, fmt.Errorf("loadvalidation: %w", err)
	}

	sps := live.SuperPeers()
	base := make([]metrics.ByClass, len(sps))
	for i, sp := range sps {
		if base[i], err = scrapeClassBytes(sp.Telemetry); err != nil {
			return nil, nil, err
		}
	}

	// The workload: every user — client or super-peer partner — issues
	// Poisson queries at QueryRate, exactly the model's user population.
	// Arrival plans are drawn per user slot in virtual seconds, so the full
	// schedule is deterministic in the seed.
	usersPer := p.ClientsPerCluster + 1
	bridge := timeBridge(p.TimeScale)
	sched := newScheduler(bridge)
	for c := 0; c < p.Clusters; c++ {
		for u := 0; u < usersPer; u++ {
			sched.arrivals(liveArrivals(p.Seed, usersPer, c, u, p.QueryRate, p.Duration), func(int) {
				var err error
				if u < p.ClientsPerCluster {
					_, err = clients[c*p.ClientsPerCluster+u].SearchDetailed(loadProbeTerm, p.QueryWindow)
				} else if n := live.Node(c, 0); n != nil {
					_, err = n.Search(loadProbeTerm, p.QueryWindow)
				}
				if err != nil {
					p.Logf("loadvalidation: query c%du%d: %v", c, u, err)
				}
			})
		}
	}
	sched.finish(p.Duration)
	// In-flight forwards land before the closing scrape.
	if err := awaitQuiet(live); err != nil {
		return nil, nil, fmt.Errorf("loadvalidation: %w", err)
	}
	virtualElapsed := bridge.virtual(time.Since(sched.start))

	ids = make([]string, len(sps))
	measured = make([]metrics.ByClass, len(sps))
	for i, sp := range sps {
		end, err := scrapeClassBytes(sp.Telemetry)
		if err != nil {
			return nil, nil, err
		}
		delta := end
		delta.Merge(base[i].Scale(-1))
		// Bytes over the actual elapsed window, converted to bits per
		// virtual second — late-firing arrivals dilate elapsed time and the
		// division self-corrects for it.
		measured[i] = delta.Scale(8 / virtualElapsed)
		ids[i] = sp.ID
	}
	return ids, measured, nil
}

// RunLoadValidationResult executes the full three-way validation and returns
// both the comparison rows and the printable report.
func RunLoadValidationResult(p LoadValidationParams) (*LoadValidationResult, error) {
	p.setDefaults()
	inst, err := loadValidationInstance(&p)
	if err != nil {
		return nil, err
	}

	res := analysis.Evaluate(inst)
	m, err := sim.Run(inst, sim.Options{Duration: p.SimDuration, Seed: p.Seed + 1})
	if err != nil {
		return nil, err
	}
	ids, liveMeasured, err := runLiveLoadCell(&p, inst)
	if err != nil {
		return nil, err
	}
	if len(ids) != p.Clusters || len(m.SuperPeerClassBps) != p.Clusters {
		return nil, fmt.Errorf("loadvalidation: %d live super-peers, %d simulated clusters, want %d",
			len(ids), len(m.SuperPeerClassBps), p.Clusters)
	}

	rows := make([]LoadValidationRow, p.Clusters)
	for v := 0; v < p.Clusters; v++ {
		rows[v] = LoadValidationRow{
			ID:    ids[v],
			Model: res.SuperPeerClassBps(v),
			Sim:   m.SuperPeerClassBps[v],
			Live:  liveMeasured[v],
		}
	}

	columns := []string{
		"Super-peer", "Component", "Model (bps)", "Sim (bps)", "Live (bps)",
		"Sim err", "Live err",
	}
	var tableRows [][]string
	addRow := func(id, label string, model, simv, livev float64) {
		tableRows = append(tableRows, []string{
			id, label,
			fmt.Sprintf("%.4g", model),
			fmt.Sprintf("%.4g", simv),
			fmt.Sprintf("%.4g", livev),
			fmt.Sprintf("%.1f%%", 100*relErr(simv, model)),
			fmt.Sprintf("%.1f%%", 100*relErr(livev, model)),
		})
	}
	for _, row := range rows {
		for _, comp := range []struct {
			label string
			get   func(metrics.ByClass) float64
		}{
			{"query in", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassQuery, metrics.DirIn) }},
			{"query out", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassQuery, metrics.DirOut) }},
			{"response in", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassResponse, metrics.DirIn) }},
			{"response out", func(b metrics.ByClass) float64 { return b.Get(metrics.ClassResponse, metrics.DirOut) }},
			{"query+response in", func(b metrics.ByClass) float64 { return queryRespBps(b, metrics.DirIn) }},
			{"query+response out", func(b metrics.ByClass) float64 { return queryRespBps(b, metrics.DirOut) }},
		} {
			addRow(row.ID, comp.label, comp.get(row.Model), comp.get(row.Sim), comp.get(row.Live))
		}
	}

	report := &Report{
		ID:    "loadvalidation",
		Title: "Validation: analytical vs simulated vs live-measured super-peer load",
		Notes: []string{
			fmt.Sprintf("%d single-partner super-peers on a clique, %d clients each, per-user query rate %g/virtual s",
				p.Clusters, p.ClientsPerCluster, p.QueryRate),
			fmt.Sprintf("live window %g virtual s at time-scale %g (%.1f wall s); simulator %g virtual s",
				p.Duration, p.TimeScale, p.Duration/p.TimeScale, p.SimDuration),
			"live column scraped from each super-peer's /metrics endpoint (spnet_message_bytes_total)",
			"query and response classes are the compared components; joins are one-shot live vs rate-based in the model, pings and busy have no analytical counterpart",
		},
		Tables: []Table{{
			Title:   "per-super-peer bandwidth, model vs simulator vs live",
			Columns: columns,
			Rows:    tableRows,
		}},
	}
	return &LoadValidationResult{Rows: rows, Report: report}, nil
}

// RunLoadValidation is the registry entry point for the loadvalidation
// experiment.
func RunLoadValidation(p LoadValidationParams) (*Report, error) {
	res, err := RunLoadValidationResult(p)
	if err != nil {
		return nil, err
	}
	return res.Report, nil
}

// runLoadValidationDefault adapts the generic experiment Params: Scale
// shortens the live and simulated windows proportionally (sampling noise
// grows as windows shrink — full scale is the validated configuration).
func runLoadValidationDefault(p Params) (*Report, error) {
	lp := LoadValidationParams{Seed: p.Seed}
	if p.Scale > 0 && p.Scale < 1 {
		lp.Duration = math.Max(60, 900*p.Scale)
		lp.SimDuration = math.Max(400, 8000*p.Scale)
	}
	return RunLoadValidation(lp)
}
