package sim

import (
	"fmt"
	"strings"
	"testing"

	"spnet/internal/analysis"
	"spnet/internal/design"
	"spnet/internal/network"
)

// adaptivePin renders an adaptive run's outcome at full float64 precision,
// so two runs agree on the string only if every value is bit-identical.
func adaptivePin(m *Measured) string {
	vals := []float64{
		m.Aggregate.InBps, m.Aggregate.OutBps, m.Aggregate.ProcHz,
		float64(m.FinalClusters), float64(m.FinalPeers),
		m.FinalMeanTTL, m.FinalMeanOutdegree,
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.17g", v)
	}
	return strings.Join(parts, " ")
}

// TestAdaptivePinned pins the outcome of the five TestAdaptive*
// configurations bit for bit. Between them they drive every path of the
// Section 5.3 loop: rule II growth with the Appendix E probe, the rule III
// horizon window, overload promotion and splitting, coalescing, and rule I
// admission of arriving clients. The expected strings were captured before
// the decision state moved into design.Policy.
func TestAdaptivePinned(t *testing.T) {
	powerLaw := func(size, cluster int, outdeg float64) network.Config {
		return network.Config{GraphType: network.PowerLaw, GraphSize: size,
			ClusterSize: cluster, AvgOutdegree: outdeg, TTL: 7}
	}
	for _, c := range []struct {
		name     string
		cfg      network.Config
		instSeed uint64
		opts     Options
		want     string
	}{
		{"ruleII", powerLaw(300, 10, 3.1), 1, Options{
			Duration: 1200, Seed: 2, Churn: true,
			Adaptive: &AdaptiveOptions{
				Limit:    analysis.Load{InBps: 4e4, OutBps: 4e4, ProcHz: 5e5},
				Interval: 60,
			}},
			"581106.2533333333 580626.89333333331 7769197.2959986059 29 296 3.896551724137931 8.8965517241379306"},
		{"ruleIII", powerLaw(300, 10, 10), 3, Options{
			Duration: 900, Seed: 4, Churn: false,
			Adaptive: &AdaptiveOptions{
				Limit:        analysis.Load{InBps: 4e4, OutBps: 4e4, ProcHz: 5e5},
				Interval:     60,
				MaxOutdegree: 10,
			}},
			"930359.92888888961 930660.58666666702 14159417.344003171 31 316 4.903225806451613 11.806451612903226"},
		{"overload", powerLaw(300, 10, 3.1), 5, Options{
			Duration: 900, Seed: 6, Churn: true,
			Adaptive: &AdaptiveOptions{
				Limit:    analysis.Load{InBps: 2000, OutBps: 2000, ProcHz: 50_000},
				Interval: 60,
			}},
			"979899.92888888856 969203.78666666674 12584360.559999971 79 300 6.481012658227848 4.7848101265822782"},
		{"coalesce", powerLaw(200, 2, 3.1), 7, Options{
			Duration: 900, Seed: 8, Churn: false,
			Adaptive: &AdaptiveOptions{
				Limit:      analysis.Load{InBps: 1e9, OutBps: 1e9, ProcHz: 1e12},
				Thresholds: design.Thresholds{Coalesce: 0.5},
				Interval:   60,
			}},
			"37817.351111111078 38371.39555555558 573849.61600001471 1 201 5 0"},
		{"arrivals", powerLaw(300, 10, 3.1), 9, Options{
			Duration: 600, Seed: 10, Churn: false,
			Adaptive: &AdaptiveOptions{
				Limit:       analysis.Load{InBps: 1e7, OutBps: 1e7, ProcHz: 1e9},
				Interval:    60,
				ArrivalRate: 0.5,
			}},
			"140806.6933333333 141671.01333333328 2306771.6639999924 1 457 3 0"},
	} {
		m, err := Run(generate(t, c.cfg, lowVarProfile(), c.instSeed), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := adaptivePin(m); got != c.want {
			t.Errorf("%s drifted:\n got  %s\n want %s", c.name, got, c.want)
		}
	}
}
