package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"spnet/internal/analysis"
	"spnet/internal/network"
	"spnet/internal/sim"
	"spnet/internal/stats"
	"spnet/internal/topology"
)

// The model workload's fixed shape: paper-default (Table 1: 10,000 peers,
// power-law, cluster size 10, TTL 7) instances for the analysis, and smaller
// churning instances for the simulator. Several instances per layer keep one
// seed's graph from setting the run's figure.
const (
	evalInstances  = 4
	simInstances   = 4
	simPeers       = 2000
	simVirtualSecs = 15.0
	// Each set-up generates every instance; setup_s is the median over
	// repeats.
	modelSetups = 5
)

// modelInputs are the generated instances of one set-up.
type modelInputs struct {
	eval, sim []*network.Instance
}

// generateModel builds the seed's instances and reports how long each
// Table-1 instance took to generate, in milliseconds.
func generateModel(seed uint64) (*modelInputs, []float64, error) {
	rng := stats.NewRNG(seed).Split(saltModel)
	in := &modelInputs{}
	var genMS []float64
	for i := 0; i < evalInstances; i++ {
		start := time.Now()
		inst, err := network.Generate(network.DefaultConfig(), nil, rng.Split(uint64(i)))
		if err != nil {
			return nil, nil, err
		}
		genMS = append(genMS, ms(time.Since(start)))
		in.eval = append(in.eval, inst)
	}
	cfg := network.DefaultConfig()
	cfg.GraphSize = simPeers
	for i := 0; i < simInstances; i++ {
		inst, err := network.Generate(cfg, nil, rng.Split(uint64(evalInstances+i)))
		if err != nil {
			return nil, nil, err
		}
		in.sim = append(in.sim, inst)
	}
	return in, genMS, nil
}

// modelOutputs are the outputs the model workload checks for determinism:
// each analysed instance's results per query, and each simulated
// instance's event count and results per query.
type modelOutputs struct {
	results   []float64
	simEvents []int
	simRPQ    []float64
}

// runSim runs the simulator for the workload's fixed virtual duration.
func runSim(inst *network.Instance, seed uint64) (*sim.Measured, error) {
	m, err := sim.Run(inst, sim.Options{Duration: simVirtualSecs, Seed: seed, Churn: true})
	if err != nil {
		return nil, fmt.Errorf("simulating: %w", err)
	}
	return m, nil
}

// modelPass evaluates and simulates every instance once.
func modelPass(in *modelInputs, seed uint64) (*modelOutputs, error) {
	out := &modelOutputs{}
	for _, inst := range in.eval {
		out.results = append(out.results, analysis.Evaluate(inst).ResultsPerQuery)
	}
	for _, inst := range in.sim {
		m, err := runSim(inst, seed)
		if err != nil {
			return nil, err
		}
		out.simEvents = append(out.simEvents, m.EventsExecuted)
		out.simRPQ = append(out.simRPQ, m.ResultsPerQuery)
	}
	return out, nil
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// modelNumbers are one measured pass of the model workload.
type modelNumbers struct {
	evalMS                  []float64 // wall milliseconds per Evaluate
	evalCPU                 float64   // process CPU seconds of every Evaluate
	simEvents               int
	simSecs, simCPU         float64 // wall and process CPU seconds of every simulator run
	evals, sims, mismatches int
}

// eventsPerSec pools every simulator run: events over wall seconds.
func (n modelNumbers) eventsPerSec() float64 { return float64(n.simEvents) / n.simSecs }

// evalCPUMS is the mean process CPU milliseconds of one Evaluate, garbage
// collection included.
func (n modelNumbers) evalCPUMS() float64 { return n.evalCPU * 1e3 / float64(n.evals) }

// eventsPerCPUSec pools every simulator run: events over process CPU seconds.
func (n modelNumbers) eventsPerCPUSec() float64 { return float64(n.simEvents) / n.simCPU }

// measureModel alternates rounds of evaluating and of simulating every
// instance until dur has passed, so both layers see the same stretches of
// the host's time and each instance weighs the same. Every output is checked
// against want bit for bit.
func measureModel(in *modelInputs, want *modelOutputs, seed uint64, dur time.Duration, tr *Tracer) (modelNumbers, error) {
	var n modelNumbers
	end := time.Now().Add(dur)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		for k, inst := range in.eval {
			s := tr.Begin("analysis.evaluate", 0, uint64(n.evals))
			start, cpu0 := time.Now(), cpuTime()
			r := analysis.Evaluate(inst)
			n.evalMS = append(n.evalMS, ms(time.Since(start)))
			n.evalCPU += (cpuTime() - cpu0).Seconds()
			tr.End(s)
			n.evals++
			if !sameFloat(r.ResultsPerQuery, want.results[k]) {
				n.mismatches++
			}
		}
		for k, inst := range in.sim {
			s := tr.Begin("sim.run", 0, uint64(n.sims))
			start, cpu0 := time.Now(), cpuTime()
			m, err := runSim(inst, seed)
			n.simSecs += time.Since(start).Seconds()
			n.simCPU += (cpuTime() - cpu0).Seconds()
			tr.End(s)
			if err != nil {
				return n, err
			}
			n.sims++
			n.simEvents += m.EventsExecuted
			if m.EventsExecuted != want.simEvents[k] || !sameFloat(m.ResultsPerQuery, want.simRPQ[k]) {
				n.mismatches++
			}
		}
	}
	return n, nil
}

func runModel(cfg runConfig) (*result, error) {
	var setups, setupsCPU, genMS []float64
	setup := func() (*modelInputs, error) {
		start, cpu0 := time.Now(), cpuTime()
		in, g, err := generateModel(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupsCPU = append(setupsCPU, (cpuTime() - cpu0).Seconds())
		genMS = append(genMS, g...)
		return in, nil
	}
	in, err := setup()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "model: %d Table-1 instances (%d peers); simulator on %d instances of %d peers, %.0f virtual s per run\n",
		evalInstances, network.DefaultConfig().GraphSize, simInstances, simPeers, simVirtualSecs)

	// One untimed pass warms the heap and gives the outputs every timed call
	// must reproduce bit for bit.
	want, err := modelPass(in, cfg.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC() // start measuring on a collected heap

	res := &result{}
	var m modelNumbers
	var layers []metric
	if !cfg.trace {
		if m, err = measureModel(in, want, cfg.seed, cfg.dur, nil); err != nil {
			return nil, err
		}
	} else {
		untraced, err := measureModel(in, want, cfg.seed, cfg.dur/2, nil)
		if err != nil {
			return nil, err
		}
		res.tracer = NewTracer()
		if m, err = measureModel(in, want, cfg.seed, cfg.dur/2, res.tracer); err != nil {
			return nil, err
		}
		layers = append(layers, overheadPct(untraced.evalCPUMS(), m.evalCPUMS()))
		layers = append(layers, modelLayers(in, cfg.seed, res.tracer)...)
	}
	// Extra set-ups come after the measurement, so their garbage never
	// overlaps a measured phase.
	for len(setups) < modelSetups {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	setupS := median(setupsCPU)

	report(cfg.out, "model", metric{"evaluations", "count", float64(m.evals)},
		metric{"evaluate_ms", "ms", median(m.evalMS)},
		metric{"evaluate_p90_ms", "ms", quantile(m.evalMS, 0.9)},
		metric{"results_per_query", "count", want.results[0]},
		metric{"sim_runs", "count", float64(m.sims)},
		metric{"sim_events", "count", float64(want.simEvents[0])},
		metric{"sim_events_per_s", "1/s", m.eventsPerSec()},
		metric{"evaluate_cpu_ms", "ms", m.evalCPUMS()},
		metric{"sim_events_per_cpu_s", "1/s", m.eventsPerCPUSec()},
		metric{"mismatches", "count", float64(m.mismatches)})
	fmt.Fprintf(cfg.out, "model: setup wall_s=%.6f cpu_s=%.6f\n", median(setups), setupS)

	res.attempted = m.evals + m.sims
	res.failed = m.mismatches
	res.correct = m.mismatches == 0
	res.e2e = []metric{
		{"cpu_ms_per_op", "ms", m.evalCPUMS()},
		{"work_per_cpu_s", "1/s", m.eventsPerCPUSec()},
		{"setup_s", "s", setupS},
	}
	if cfg.trace {
		layers = append(layers,
			metric{"network.generate_ms", "ms", median(genMS)},
			metric{"sim.ns_per_event", "ns", m.simSecs * 1e9 / float64(m.simEvents)},
			metric{"sim.events", "count", float64(m.simEvents) / float64(m.sims)})
		res.layers = layers
		report(cfg.out, "model layers", layers...)
	}
	return res, nil
}

// modelLayers measures the topology BFS, Evaluate's allocations and the
// simulator's allocations per event on the workload's first instances.
func modelLayers(in *modelInputs, seed uint64, tr *Tracer) []metric {
	inst := in.eval[0]
	n := len(inst.Clusters)
	var bfsUS float64
	tr.Do("topology.bfs", 0, 0, func() {
		start := time.Now()
		for v := 0; v < n; v++ {
			topology.BFS(inst.Graph, v, inst.Config.TTL, 0)
		}
		bfsUS = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	})
	evalAllocs, evalBytes := allocsOf(func() { analysis.Evaluate(inst) })
	var events int
	simAllocs, _ := allocsOf(func() {
		if m, err := runSim(in.sim[0], seed); err == nil {
			events = m.EventsExecuted
		}
	})
	return []metric{
		{"topology.bfs_us", "us", bfsUS},
		{"analysis.evaluate_allocs", "count", evalAllocs},
		{"analysis.evaluate_bytes", "B", evalBytes},
		{"sim.allocs_per_event", "count", simAllocs / float64(max(events, 1))},
	}
}
