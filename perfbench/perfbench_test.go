package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"spnet/internal/gnutella"
	"spnet/internal/index"
	"spnet/internal/stats"
)

func TestSeedFixesInputs(t *testing.T) {
	draw := func(seed uint64) (*corpus, []string, []churnOp, []string) {
		c := newCorpus(seed, 4, 20)
		src := &querySource{rng: stats.NewRNG(seed).Split(saltQueries), lib: c.lib, ref: c.ref,
			expect: func(m index.Match) []resultKey { return []resultKey{{port: uint16(m.Doc.Owner), file: m.Doc.File}} }}
		var qs []string
		for i := 0; i < 50; i++ {
			text, want := src.next()
			var keys []string
			for k, title := range want {
				keys = append(keys, fmt.Sprint(k, title))
			}
			sort.Strings(keys)
			qs = append(qs, text+" -> "+strings.Join(keys, ","))
		}
		return c, qs, churnSchedule(seed, 4, 50), storeTitles(seed, c.lib)
	}
	c1, q1, ch1, st1 := draw(7)
	c2, q2, ch2, st2 := draw(7)
	if !reflect.DeepEqual(c1.clients, c2.clients) || !reflect.DeepEqual(q1, q2) ||
		!reflect.DeepEqual(ch1, ch2) || !reflect.DeepEqual(st1, st2) {
		t.Fatal("the same seed generated different inputs")
	}
	c3, q3, _, _ := draw(8)
	if reflect.DeepEqual(c1.clients, c3.clients) || reflect.DeepEqual(q1, q3) {
		t.Fatal("different seeds generated the same inputs")
	}
	for _, op := range ch1 {
		if strings.Contains(op.title, "w") {
			t.Fatalf("churn title %q shares the query term namespace", op.title)
		}
	}
}

// hit builds a QueryHit whose results come from the given responder ports.
func hit(id gnutella.GUID, results ...resultKey) *gnutella.QueryHit {
	h := &gnutella.QueryHit{ID: id}
	for _, r := range results {
		h.Responders = append(h.Responders, gnutella.ResponderRecord{Port: r.port})
		h.Results = append(h.Results, gnutella.ResultRecord{FileIndex: r.file,
			AddrRef: uint16(len(h.Responders) - 1), Title: "w0001 w0002"})
	}
	return h
}

func TestCheckerFlagsBadResults(t *testing.T) {
	a, b := resultKey{port: 1000, file: 1}, resultKey{port: 1001, file: 2}
	due := time.Now()
	timeout := time.Second
	cases := []struct {
		name   string
		frames func(id gnutella.GUID) []gnutella.Message
		failed bool
		wrong  string
	}{
		{"complete", func(id gnutella.GUID) []gnutella.Message {
			return []gnutella.Message{hit(id, a), hit(id, b)}
		}, false, ""},
		{"duplicate", func(id gnutella.GUID) []gnutella.Message {
			return []gnutella.Message{hit(id, a), hit(id, a)}
		}, true, "duplicate result"},
		{"foreign", func(id gnutella.GUID) []gnutella.Message {
			return []gnutella.Message{hit(id, a), hit(id, resultKey{port: 1002, file: 2})}
		}, true, "foreign result"},
		{"short count", func(id gnutella.GUID) []gnutella.Message {
			return []gnutella.Message{hit(id, a)}
		}, true, ""},
		{"busy", func(id gnutella.GUID) []gnutella.Message {
			return []gnutella.Message{hit(id, a), &gnutella.Busy{ID: id}}
		}, true, ""},
	}
	for _, tc := range cases {
		tr := newTracker(1)
		q := tr.add(1, "w0001", map[resultKey]string{a: "w0001 w0002", b: "w0001 w0002"}, due)
		for _, m := range tc.frames(q.id) {
			tr.onMessage(m, due.Add(time.Millisecond))
		}
		if got := q.failed(timeout); got != tc.failed {
			t.Errorf("%s: failed = %v, want %v", tc.name, got, tc.failed)
		}
		if tc.wrong != "" && (len(q.wrong) == 0 || q.wrong[0] != tc.wrong) {
			t.Errorf("%s: rejections %v, want %q", tc.name, q.wrong, tc.wrong)
		}
		s := tr.summarize(1, timeout, due, due.Add(time.Second))
		if (s.failed == 1) != tc.failed || s.attempted != 1 {
			t.Errorf("%s: summary %d failed of %d", tc.name, s.failed, s.attempted)
		}
		if tc.failed && !math.IsInf(s.samples[0].ttlh, 1) {
			t.Errorf("%s: a failed query's latency is %v, want +Inf", tc.name, s.samples[0].ttlh)
		}
	}
}

func TestCheckerCountsStrayFrames(t *testing.T) {
	tr := newTracker(1)
	tr.onMessage(hit(gnutella.GUID{9}, resultKey{port: 1, file: 1}), time.Now())
	if tr.strayCount() != 1 {
		t.Fatalf("stray = %d, want 1", tr.strayCount())
	}
}

func TestModelOutputsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and evaluates paper-scale instances")
	}
	var outs []*modelOutputs
	for i := 0; i < 2; i++ {
		in, _, err := generateModel(3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := modelPass(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("model outputs differ across runs of one seed: %+v vs %+v", outs[0], outs[1])
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past its parent
	}
	got := map[string]SpanTotals{}
	for _, s := range spanTotals(spans) {
		got[s.Name] = s
	}
	if self := got["root"].Self * 1e6; math.Abs(self-40) > 1e-9 {
		t.Fatalf("root self = %v ns, want 40", self)
	}
	if got["child"].Count != 3 {
		t.Fatalf("child count = %d, want 3", got["child"].Count)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []struct{ name, unit string }) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(code))
			return
		}
		for i := range file {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i,
					file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsRunClean runs every workload briefly, untraced and traced, and
// checks the contract of the last output line.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("launches live fleets")
	}
	// Traced runs write their spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %s", name, trace, lines[len(lines)-1])
			}
			for _, m := range want {
				if trace == "0" && res.Metrics[m.name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
				}
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result", args)
		}
	}
}
