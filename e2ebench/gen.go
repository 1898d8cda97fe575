package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/segment"
)

// queryReq is one generated query: the only input the system receives.
type queryReq struct {
	Stream   string
	Query    string // cascade: "A" or "B"
	Accuracy float64
	From, To int
	Chunk    int // 0: the whole range as one chunk; 1: one chunk per segment
}

func (q queryReq) key() string {
	return fmt.Sprintf("%s/%s@%.2f[%d,%d)c%d", q.Stream, q.Query, q.Accuracy, q.From, q.To, q.Chunk)
}

func (q queryReq) wire() api.QueryRequest {
	return api.QueryRequest{Stream: q.Stream, Query: q.Query, Accuracy: q.Accuracy, From: q.From, To: q.To, Chunk: q.Chunk}
}

// videoSeconds is the span of video the query answers.
func (q queryReq) videoSeconds() float64 { return float64(q.To-q.From) * segment.Seconds }

// spans are the chunks the answer arrives in: [lo, hi) pairs.
func (q queryReq) spans() [][2]int {
	step := q.Chunk
	if step <= 0 {
		step = q.To - q.From
	}
	var out [][2]int
	for lo := q.From; lo < q.To; lo += step {
		out = append(out, [2]int{lo, min(lo+step, q.To)})
	}
	return out
}

// Scan workload inputs: cascade {A, B} x accuracy {0.95, 0.9, 0.8} over
// whole-range ranges of the archived stream.
var (
	scanCascades = []string{"A", "B"}
	scanAccuracy = []float64{0.95, 0.9, 0.8}
	scanSegments = 4
	scanRanges   = [][2]int{{0, 4}, {0, 2}, {2, 4}, {1, 3}, {0, 1}, {3, 4}}
)

// scanMix returns every distinct scan request (the oracle's domain).
func scanMix(stream string) []queryReq {
	var out []queryReq
	for _, c := range scanCascades {
		for _, a := range scanAccuracy {
			for _, r := range scanRanges {
				out = append(out, queryReq{Stream: stream, Query: c, Accuracy: a, From: r[0], To: r[1]})
			}
		}
	}
	return out
}

// generator deals the requests of a window. next returns false once the
// window is over; deadline is the window's end.
type generator interface {
	next(client int, deadline time.Time) (queryReq, bool)
}

// scanGen deals the full scan cross product from one seeded shuffle bag
// that both analysts draw from, reshuffling after every pass. A window
// closes at the first pass boundary after its deadline (a pass is 36
// queries, about 1.5 s on a 2-vCPU host), so every run answers whole passes
// of the same mix in a seed-dependent order and run-to-run medians compare.
type scanGen struct {
	mu    sync.Mutex
	rng   *rand.Rand
	mix   []queryReq
	order []int
}

func newScanGen(seed int64, stream string) *scanGen {
	return &scanGen{rng: rand.New(rand.NewSource(mixSeed(seed, 0))), mix: scanMix(stream)}
}

func (g *scanGen) next(_ int, deadline time.Time) (queryReq, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.order) == 0 {
		if !time.Now().Before(deadline) {
			return queryReq{}, false
		}
		g.order = g.rng.Perm(len(g.mix))
	}
	q := g.mix[g.order[0]]
	g.order = g.order[1:]
	return q, true
}

// dashboardTuples is the small fixed set of monitoring queries a dashboard
// repeats: one (stream, cascade, accuracy, range) tuple per panel, each
// two segments long and streamed one chunk per segment. Streams are
// indexes into the workload's stream list.
var dashboardTuples = []struct {
	stream   int
	query    string
	accuracy float64
}{
	{0, "A", 0.9}, {1, "A", 0.9}, {2, "A", 0.9},
	{0, "B", 0.95}, {1, "B", 0.9}, {2, "B", 0.8},
	{0, "A", 0.8}, {1, "A", 0.95},
}

const dashboardSegments = 2

func dashboardMix(streams []string) []queryReq {
	var out []queryReq
	for _, t := range dashboardTuples {
		out = append(out, queryReq{Stream: streams[t.stream], Query: t.query, Accuracy: t.accuracy,
			From: 0, To: dashboardSegments, Chunk: 1})
	}
	return out
}

// dashGen picks panels by a Zipf law over the fixed panel order (the
// first panel is the hottest), each client drawing from its own seeded
// stream until the window's deadline.
type dashGen struct {
	mix  []queryReq
	zipf []*rand.Zipf // per client
}

func newDashGen(seed int64, clients int, mix []queryReq) *dashGen {
	g := &dashGen{mix: mix}
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(mixSeed(seed, c)))
		g.zipf = append(g.zipf, rand.NewZipf(rng, 1.2, 1, uint64(len(mix)-1)))
	}
	return g
}

func (g *dashGen) next(client int, deadline time.Time) (queryReq, bool) {
	if !time.Now().Before(deadline) {
		return queryReq{}, false
	}
	return g.mix[g.zipf[client].Uint64()], true
}

// mixSeed derives a per-client stream of the run's seed.
func mixSeed(seed int64, clientIdx int) int64 {
	return seed*1_000_003 + int64(clientIdx)*7919 + 17
}
