package experiments

import (
	"fmt"
	"strings"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/sim"
)

// pinFormat renders values at full float64 precision, so two runs agree on
// the string only if every value is bit-identical.
func pinFormat(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.17g", v)
	}
	return strings.Join(parts, " ")
}

// superPeerQueryResp appends one super-peer's query+response bandwidth in
// both directions.
func superPeerQueryResp(vals []float64, b metrics.ByClass) []float64 {
	return append(vals, queryRespBps(b, metrics.DirIn), queryRespBps(b, metrics.DirOut))
}

func pinRoutingCompare() ([]float64, error) {
	p := RoutingCompareParams{SimDuration: 400, Seed: 42}
	p.setDefaults()
	inst, err := routingCompareInstance(&p)
	if err != nil {
		return nil, err
	}
	var vals []float64
	for _, spec := range []string{"flood", "randomwalk", "routingindex"} {
		fw, err := routingForwardModel(spec, p.clusters())
		if err != nil {
			return nil, err
		}
		res := analysis.EvaluateStrategy(inst, fw)
		vals = append(vals, res.ResultsPerQuery, res.QueryForwardsPerQuery)
		vals = superPeerQueryResp(vals, res.SuperPeerClassBps(0))
		vals = superPeerQueryResp(vals, res.SuperPeerClassBps(1))
	}
	for _, spec := range []string{"flood", "routingindex"} {
		cell, err := runRoutingSim(&p, spec)
		if err != nil {
			return nil, err
		}
		vals = append(vals, cell.ForwardsPerQuery, cell.Recall)
	}
	return vals, nil
}

func pinTrustSweep() ([]float64, error) {
	p := TrustSweepParams{SimDuration: 400, Seed: 41}
	p.setDefaults()
	inst, err := trustStarInstance(p.SimClusters)
	if err != nil {
		return nil, err
	}
	res := analysis.Evaluate(inst)
	vals := []float64{
		res.ResultsPerQuery, res.QueryForwardsPerQuery,
		analysis.EvaluateAdversarial(inst, nil, 0.7).ResultsPerQuery,
	}
	vals = superPeerQueryResp(vals, res.SuperPeerClassBps(0))
	vals = superPeerQueryResp(vals, res.SuperPeerClassBps(1))
	for _, trustOn := range []bool{false, true} {
		m, err := runTrustSimCell(&p, 0.3, trustOn)
		if err != nil {
			return nil, err
		}
		vals = append(vals,
			float64(m.ClientQueriesTracked), float64(m.ClientQueriesUnanswered),
			m.GenuineResultsPerQuery, float64(m.ForgedAccepted), float64(m.ForgedDetected),
			float64(m.QueriesForwarded))
	}
	return vals, nil
}

func pinLoadValidation(clusters int) func() ([]float64, error) {
	return func() ([]float64, error) {
		p := LoadValidationParams{Clusters: clusters, SimDuration: 400, Seed: 42}
		p.setDefaults()
		inst, err := loadValidationInstance(&p)
		if err != nil {
			return nil, err
		}
		return pinModelAndSim(inst, p.SimDuration, p.Seed+1)
	}
}

// pinModelAndSim evaluates an instance and simulates it the way
// RunLoadValidationResult does, returning super-peer 0's load both ways.
func pinModelAndSim(inst *network.Instance, duration float64, seed uint64) ([]float64, error) {
	res := analysis.Evaluate(inst)
	vals := []float64{res.ResultsPerQuery, res.QueryForwardsPerQuery}
	vals = superPeerQueryResp(vals, res.SuperPeerClassBps(0))
	m, err := sim.Run(inst, sim.Options{Duration: duration, Seed: seed})
	if err != nil {
		return nil, err
	}
	vals = append(vals, m.ResultsPerQuery, float64(m.QueriesIssued), float64(m.QueriesForwarded))
	return superPeerQueryResp(vals, m.SuperPeerClassBps[0]), nil
}

// TestPlantedInstancesPinned pins the model and simulator outputs of the
// hand-planted instances behind routingcompare, trustsweep and
// loadvalidation at fixed seeds. The expected strings were captured before
// the three instances moved onto the shared plantedInstance builder; any
// drift in an instance's clusters, graph, profile or config changes them.
func TestPlantedInstancesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() ([]float64, error)
		want string
	}{
		{"routingcompare", pinRoutingCompare,
			"3.0000000000000004 4.0000000000000009 2675.8400000000006 4730.2399999999998 1170.5600000000002 1112.96 1.7999999999999998 1.9999999999999998 1421.4400000000001 2130.5599999999999 567.68000000000006 611.20000000000005 1.3680000000000001 1.2800000000000007 957.56800000000021 1322.3680000000002 393.85599999999999 438.78399999999999 4 1 1.3033419023136248 1"},
		{"trustsweep", pinTrustSweep,
			"3 4 1.9776000000000002 1659.2 2897.6000000000004 718.40000000000009 636.80000000000007 306 186 1.1764705882352942 390 0 1174 312 0 3 0 0 2156"},
		{"loadvalidation/3", pinLoadValidation(3),
			"9 4 1923.2000000000003 3228.8000000000002 9 223 892 1781.5999999999999 2984.4800000000005"},
		{"loadvalidation/4", pinLoadValidation(4),
			"12.000000000000002 9.0000000000000018 3254.4000000000005 5030.4000000000015 12 339 3051 3447.6800000000003 5247.2000000000007"},
	} {
		vals, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pinFormat(vals); got != c.want {
			t.Errorf("%s drifted:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}
