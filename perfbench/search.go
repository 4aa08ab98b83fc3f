package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"spnet/internal/index"
	"spnet/internal/stats"
)

// The search workload's fixed shape.
const (
	corpusClients = 30
	corpusFiles   = 100
	churnClients  = 4
	churnRate     = 10.0  // churn operations per second
	openRate      = 500.0 // offered queries per second, well under the shedding knee
	closedWindow  = 2     // outstanding queries per connection in the closed loop
	queryTimeout  = 2 * time.Second
	// Set-up is a few tens of milliseconds, so setup_s is the median of
	// many set-ups.
	searchSetups = 25
	warmup       = 500 * time.Millisecond
)

// loadConns is how many load-generator connections the workloads open: one
// per CPU, at most 4.
func loadConns() int { return max(1, min(runtime.NumCPU(), 4)) }

// The measured time alternates between open-loop and closed-loop blocks, so
// both phases see the same stretches of the host's time and the same
// growth of the fleet's state. latencyWindow is the window of the latency
// medians: at the offered rate it holds about 650 latency samples, so its
// 90th percentile has 65 beyond it. The 99th percentile is reported over
// all samples.
const (
	searchBlocks  = 4
	latencyWindow = 2 * time.Second
)

// searchNumbers are one measured pass of the search workload.
type searchNumbers struct {
	open, closed []phaseSummary // one per block
	late         []float64
	sent         int
}

func (n searchNumbers) ttlh50() float64 { return medianLatency(n.open, latencyWindow, 0.5, true) }

func runSearch(cfg runConfig) (*result, error) {
	c := newCorpus(cfg.seed, corpusClients, corpusFiles)
	t := newTracker(cfg.seed)
	spec := func() fleetSpec {
		return fleetSpec{corpus: c.clients, churn: churnClients, wire: loadConns()}
	}
	var setups setupTimes
	f, err := setups.start(spec, cfg.seed, t)
	if err != nil {
		return nil, err
	}
	defer f.close()
	fmt.Fprintf(cfg.out, "search: fleet %d×%d, corpus %d clients × %d files = %d files, %d churn clients, %d load connections\n",
		numClusters, numPartners, corpusClients, corpusFiles, c.files(), churnClients, len(f.wire))

	root := stats.NewRNG(cfg.seed)
	expect := func(m index.Match) []resultKey {
		return []resultKey{{port: f.ports[m.Doc.Owner], file: m.Doc.File}}
	}
	open := &querySource{rng: root.Split(saltQueries), lib: c.lib, ref: c.ref, expect: expect}
	closed := &querySource{rng: root.Split(saltMatching), lib: c.lib, ref: c.ref, expect: expect, matchOnly: true}
	arrivals := root.Split(saltArrivals)
	churn := startChurn(f, churnSchedule(cfg.seed, churnClients, 1<<20), churnRate, t)

	runtime.GC() // start measuring on a collected heap
	phase := 0
	measure := func(dur time.Duration) (searchNumbers, error) {
		var n searchNumbers
		sent0 := t.sentCount()
		phase++
		if _, err := openLoop(f.wire, t, open, phase, openRate, warmup, arrivals); err != nil {
			return n, err
		}
		t.drain(phase, queryTimeout)
		openDur := dur * 6 / 10 / searchBlocks
		closedDur := dur/searchBlocks - openDur
		for b := 0; b < searchBlocks; b++ {
			phase++
			start, cpu0 := time.Now(), cpuTime()
			late, err := openLoop(f.wire, t, open, phase, openRate, openDur, arrivals)
			if err != nil {
				return n, err
			}
			t.drain(phase, queryTimeout)
			s := t.summarize(phase, queryTimeout, start, start.Add(openDur))
			s.cpu = (cpuTime() - cpu0).Seconds()
			n.open = append(n.open, s)
			n.late = append(n.late, late...)
			phase++
			start, cpu0 = time.Now(), cpuTime()
			if err := closedLoop(f.wire, t, closed, phase, closedWindow, closedDur, queryTimeout); err != nil {
				return n, err
			}
			t.drain(phase, queryTimeout)
			s = t.summarize(phase, queryTimeout, start, start.Add(closedDur))
			s.cpu = (cpuTime() - cpu0).Seconds()
			n.closed = append(n.closed, s)
		}
		n.sent = t.sentCount() - sent0
		return n, nil
	}

	res := &result{}
	var m searchNumbers
	var layers []metric
	if !cfg.trace {
		if m, err = measure(cfg.dur); err != nil {
			return nil, err
		}
	} else {
		untraced, err := measure(cfg.dur / 2)
		if err != nil {
			return nil, err
		}
		res.tracer = NewTracer()
		t.tr.Store(res.tracer)
		before := snapP2P(f.nodes)
		if m, err = measure(cfg.dur / 2); err != nil {
			return nil, err
		}
		layers = append(layers, p2pLayer(before, snapP2P(f.nodes), m.sent)...)
		layers = append(layers, overheadPct(cpuPerQuery(untraced.open), cpuPerQuery(m.open)))
	}
	churn.halt()
	f.close()
	if err := setups.repeat(searchSetups, spec, cfg.seed, t); err != nil {
		return nil, err
	}
	setupS := median(setups.cpu)

	open1, closed1 := total(m.open), total(m.closed)
	capacity := rate(m.closed)
	report(cfg.out, "search open loop", metric{"offered_qps", "1/s", openRate},
		metric{"queries", "count", float64(open1.attempted)},
		metric{"latency_samples", "count", float64(len(open1.samples))},
		metric{"ttfh_p50_ms", "ms", medianLatency(m.open, latencyWindow, 0.5, false)},
		metric{"ttfh_p99_ms", "ms", quantile(open1.ttfh(), 0.99)},
		metric{"ttlh_p50_ms", "ms", m.ttlh50()},
		metric{"ttlh_p90_ms", "ms", medianLatency(m.open, latencyWindow, 0.9, true)},
		metric{"ttlh_p99_ms", "ms", quantile(open1.ttlh(), 0.99)},
		metric{"query_fail_ratio", "ratio", ratio(open1.failed, open1.attempted)},
		metric{"busy", "count", float64(open1.busy)},
		metric{"late_p99_ms", "ms", quantile(m.late, 0.99)},
		metric{"late_max_ms", "ms", quantile(m.late, 1)},
		metric{"cpu_ms_per_query", "ms", cpuPerQuery(m.open)})
	report(cfg.out, "search closed loop", metric{"connections", "count", float64(len(f.wire))},
		metric{"window", "count", closedWindow},
		metric{"queries", "count", float64(closed1.attempted)},
		metric{"capacity_qps", "1/s", capacity},
		metric{"queries_per_cpu_s", "1/s", perCPUSecond(m.closed)},
		metric{"query_fail_ratio", "ratio", ratio(closed1.failed, closed1.attempted)},
		metric{"busy", "count", float64(closed1.busy)})
	fmt.Fprintf(cfg.out, "search: %s; stray frames=%d; late frames=%d; setup wall_s=%.6f cpu_s=%.6f\n",
		churn.report(), t.strayCount(), t.lateCount(), median(setups.secs), setupS)
	for _, err := range churn.errs {
		fmt.Fprintf(cfg.out, "search: churn error: %v\n", err)
	}

	res.attempted = open1.attempted + closed1.attempted
	res.failed = open1.failed + closed1.failed
	res.correct = open1.wrong == 0 && closed1.wrong == 0 && t.strayCount() == 0 && len(churn.errs) == 0
	res.e2e = []metric{
		{"cpu_ms_per_op", "ms", cpuPerQuery(m.open)},
		{"work_per_cpu_s", "1/s", perCPUSecond(m.closed)},
		{"setup_s", "s", setupS},
	}
	if cfg.trace {
		share := index.New()
		for i, files := range c.clients {
			if i%numClusters == 0 && (i/numClusters)%numPartners == 0 { // sp-0-0's clients
				for _, fl := range files {
					if err := share.Add(index.DocID{Owner: i, File: fl.Index}, strings.Fields(fl.Title)); err != nil {
						return nil, err
					}
				}
			}
		}
		qs, hits := t.captured()
		layers = append(layers, indexLayer(share, append(open.terms(), closed.terms()...), c.clients[0])...)
		layers = append(layers, routingLayer(open.terms()[0])...)
		layers = append(layers, codecLayer(qs, hits, joinFrames(c.clients), nil)...)
		layers = append(layers,
			metric{"network.launch_ms", "ms", median(setups.launchMS)},
			metric{"loadgen.late_p99_ms", "ms", quantile(m.late, 0.99)},
			metric{"loadgen.late_max_ms", "ms", quantile(m.late, 1)},
			metric{"loadgen.sent", "count", float64(m.sent)})
		res.layers = layers
		report(cfg.out, "search layers", layers...)
	}
	return res, nil
}

func ratio(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
