package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func draws(g generator, n int) []string {
	var out []string
	far := time.Now().Add(time.Hour)
	for i := 0; i < n; i++ {
		q, _ := g.next(i%analystCount, far)
		out = append(out, q.key())
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	mix := dashboardMix([]string{"s0", "s1", "s2"})
	gens := map[string]func(seed int64) generator{
		"scan":      func(seed int64) generator { return newScanGen(seed, "jackson") },
		"dashboard": func(seed int64) generator { return newDashGen(seed, analystCount, mix) },
	}
	for name, gen := range gens {
		a, b := draws(gen(7), 200), draws(gen(7), 200)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different sequences", name)
		}
		if reflect.DeepEqual(a, draws(gen(8), 200)) {
			t.Errorf("%s: different seeds gave the same sequence", name)
		}
	}
}

// TestScanWindowEndsOnAPassBoundary: every window answers whole passes of
// the mix, so runs with different seeds answer the same requests.
func TestScanWindowEndsOnAPassBoundary(t *testing.T) {
	g := newScanGen(3, "jackson")
	n := len(scanMix("jackson"))
	const passes = 3
	counts := map[string]int{}
	deadline := time.Now().Add(time.Hour)
	for i := 0; i < (passes-1)*n+5; i++ {
		q, ok := g.next(i%analystCount, deadline)
		if !ok {
			t.Fatal("generator stopped before its deadline")
		}
		counts[q.key()]++
	}
	past := time.Now().Add(-time.Second)
	for {
		q, ok := g.next(0, past)
		if !ok {
			break
		}
		counts[q.key()]++
	}
	for k, c := range counts {
		if c != passes {
			t.Errorf("%s answered %d times, want %d (whole passes)", k, c, passes)
		}
	}
	if len(counts) != n {
		t.Errorf("%d distinct requests, want %d", len(counts), n)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 90, End: 120}, {Start: 70, End: 75}}
	// Covered: [10,60) + [70,75) + [90,100) = 65.
	if got := selfNs(parent, kids); got != 35 {
		t.Fatalf("selfNs = %d, want 35", got)
	}
	if got := selfNs(parent, nil); got != 100 {
		t.Fatalf("selfNs without children = %d, want 100", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	var many []float64
	for i := 1; i <= 200; i++ {
		many = append(many, float64(i))
	}
	// Nearest rank: 10 samples lie beyond the p95 of 200.
	if q := quantile(many, 0.95); q != 190 {
		t.Errorf("p95 = %v, want 190", q)
	}
}

// runOnce runs the command in-process and parses its result line.
func runOnce(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if len(lines) > 0 {
		_ = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	return code, res, out.String() + errOut.String()
}

func TestCorruptReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("derives a configuration")
	}
	code, res, log := runOnce(t, "-workload", "scan", "-seed", "1", "-seconds", "1", "-corrupt-reference")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("a corrupted reference digest went unnoticed (exit %d, result %+v):\n%s", code, res, log)
	}
}

// TestTracedCountsRepeat: the exact counts of a traced run repeat across
// two runs with one seed, and the engine's children account for its span.
func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("derives a configuration four times")
	}
	exact := map[string][]string{
		"scan":             {"tier.gets_per_query", "retrieve.decoded_per_delivered", "tier.puts_per_segment"},
		"dashboard-routed": {"tier.gets_per_query", "cluster.node_calls_per_query", "retrieve.decoded_per_delivered"},
	}
	for w, names := range exact {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			code, res, log := runOnce(t, "-workload", w, "-seed", "5", "-seconds", "2", "-trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("%s traced run failed (exit %d):\n%s", w, code, log)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, n := range names {
				if first[n].Value != res.Metrics[n].Value {
					t.Errorf("%s %s: %v then %v", w, n, first[n].Value, res.Metrics[n].Value)
				}
			}
		}
		if w == "dashboard-routed" && first["cluster.node_calls_per_query"].Value != 4 {
			t.Errorf("routed query made %v node calls, want 4 (pin, two chunks, release)", first["cluster.node_calls_per_query"].Value)
		}
		if w == "scan" {
			if v := first["cluster.handler_ms"].Value; v != 0 {
				t.Errorf("scan reports router time %v", v)
			}
			for _, n := range []string{"ops.NN.ms_per_query", "codec.decode_ms_per_segment", "query.engine_ms"} {
				if first[n].Value <= 0 {
					t.Errorf("scan %s = %v, want > 0", n, first[n].Value)
				}
			}
		}
	}
}

// TestEngineSpansAccountForEngineTime replays the scan mix once and checks
// the engine breakdown: every child span lies inside its engine span, the
// union of the read, operator and results-lookup spans plus the engine's
// self time is the engine span, and the children explain most of it.
func TestEngineSpansAccountForEngineTime(t *testing.T) {
	if testing.Short() {
		t.Skip("derives a configuration")
	}
	b := newBench(options{workload: "scan", seed: 9, seconds: 1, trace: true}, t.TempDir())
	defer b.cancel()
	if err := runScan(b); err != nil {
		t.Fatal(err)
	}
	if err := b.closeAll(); err != nil {
		t.Fatal(err)
	}
	spans := b.tr.snapshot()
	kids := childrenOf(spans)
	var engine, self, covered int64
	for _, s := range spans {
		if s.Name != spanEngine {
			continue
		}
		for _, c := range kids[s.ID] {
			if c.Start < s.Start || c.End > s.End {
				t.Fatalf("child %s [%d,%d) outside engine span [%d,%d)", c.Name, c.Start, c.End, s.Start, s.End)
			}
		}
		own := selfNs(s, kids[s.ID])
		if own < 0 {
			t.Fatalf("negative self time %d", own)
		}
		engine += s.dur()
		self += own
		covered += s.dur() - own
	}
	if engine == 0 {
		t.Fatal("no engine spans recorded")
	}
	got := b.layers["query.engine_ms"] - b.layers["query.self_ms"]
	want := float64(covered) / 1e6 / float64(len(scanMix(camera)))
	if math.Abs(got-want) > 0.01*b.layers["query.engine_ms"] {
		t.Errorf("reported engine minus self = %.3f ms per query, spans say %.3f", got, want)
	}
	if frac := float64(self) / float64(engine); frac >= 0.9 {
		t.Errorf("self time is %.0f%% of the engine span: reads and operators explain too little", 100*frac)
	}
}
