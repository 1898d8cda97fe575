package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/segment"
)

const (
	// camera is the scene every stream's footage comes from, and the name
	// of the single stream of scan and ingest-mix.
	camera = "jackson"
	// dashboardResultsBytes is the dashboard nodes' results-store budget:
	// room for every entry the panels produce.
	dashboardResultsBytes = 256 << 20
)

// upTo allows n uploads.
func upTo(n int) func(int) bool { return func(i int) bool { return i < n } }

// runScan is the paper's core path: one node serving one archived stream
// under the shipped default runtime (no retrieval cache, no results
// store), two analysts issuing whole-range queries drawn from cascade
// {A, B} x accuracy {0.95, 0.9, 0.8} over varying ranges.
func runScan(b *bench) error {
	mix := scanMix(camera)
	b.params["stream_segments"] = scanSegments
	b.params["clients"] = analystCount
	b.params["ranges"] = scanRanges
	b.params["runtime"] = "default: no retrieval cache, no results store"
	var n *node
	var o oracle
	if err := b.derive(); err != nil {
		return err
	}
	err := b.timeSetup(func() error {
		if err := b.guard(mix, true); err != nil {
			return err
		}
		var err error
		if n, err = b.startNode("node0", b.cfg); err != nil {
			return err
		}
		if err := b.seed([]*node{n}, n.url, []string{camera}, scanSegments); err != nil {
			return err
		}
		o, err = b.buildOracle(mix, func(string) *node { return n })
		return err
	})
	if err != nil {
		return err
	}
	if err := b.measureQueries(n.url, newScanGen(b.opt.seed, camera), o); err != nil {
		return err
	}
	return b.traceLayers(traceSpec{path: "/v1/query", mix: [][]queryReq{mix}, streams: [][]string{{camera}}, segments: scanSegments}, o)
}

// runDashboard repeats monitoring queries through the stateless router:
// three nodes share one derived configuration with a results store, each
// owning one stream; after a warm pass two clients refresh panels picked
// by a seeded Zipf law, streamed one chunk per segment.
func runDashboard(b *bench) error {
	b.params["nodes"] = 3
	b.params["stream_segments"] = dashboardSegments
	b.params["clients"] = analystCount
	b.params["panels"] = len(dashboardTuples)
	b.params["results_bytes"] = dashboardResultsBytes
	var (
		rt      *routerNode
		nodes   []*node
		streams []string
		mix     []queryReq
		o       oracle
	)
	if err := b.derive(); err != nil {
		return err
	}
	err := b.timeSetup(func() error {
		if err := b.guard(dashboardMix([]string{"s0", "s1", "s2"}), false); err != nil {
			return err
		}
		cfg := *b.cfg
		cfg.Runtime.ResultsBytes = dashboardResultsBytes
		for i := 0; i < 3; i++ {
			n, err := b.startNode(fmt.Sprintf("node%d", i), &cfg)
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
		}
		var err error
		if rt, err = b.startRouter(nodes); err != nil {
			return err
		}
		if streams, err = ownedStreams(rt, nodes); err != nil {
			return err
		}
		if err := b.seed(nodes, rt.url, streams, dashboardSegments); err != nil {
			return err
		}
		mix = dashboardMix(streams)
		owner := map[string]*node{}
		for i, s := range streams {
			owner[s] = nodes[i]
		}
		if o, err = b.buildOracle(mix, func(s string) *node { return owner[s] }); err != nil {
			return err
		}
		b.warm(rt.url, mix, o)
		return nil
	})
	if err != nil {
		return err
	}
	hits0, misses0 := resultsCounts(nodes)
	if err := b.measureQueries(rt.url, newDashGen(b.opt.seed, analystCount, mix), o); err != nil {
		return err
	}
	if b.tr != nil {
		hits, misses := resultsCounts(nodes)
		b.layers["results.hit_rate"] = ratio(float64(hits-hits0), float64(hits-hits0+misses-misses0))
	}
	var perNode [][]queryReq
	var streamsOf [][]string
	for i := range nodes {
		var own []queryReq
		for _, q := range mix {
			if q.Stream == streams[i] {
				own = append(own, q)
			}
		}
		perNode = append(perNode, own)
		streamsOf = append(streamsOf, []string{streams[i]})
	}
	return b.traceLayers(traceSpec{path: "/v1/query", routed: true, mix: perNode, streams: streamsOf,
		segments: dashboardSegments, resultsBudget: dashboardResultsBytes}, o)
}

// ownedStreams names one stream per node, each placed on its node by the
// router's own placement.
func ownedStreams(rt *routerNode, nodes []*node) ([]string, error) {
	out := make([]string, len(nodes))
	found := 0
	for i := 0; i < 1000 && found < len(nodes); i++ {
		name := fmt.Sprintf("cam-%03d", i)
		owner := rt.rt.Place(name)[0].Name
		for k, n := range nodes {
			if n.name == owner && out[k] == "" {
				out[k] = name
				found++
			}
		}
	}
	if found < len(nodes) {
		return nil, fmt.Errorf("no stream names place one per node")
	}
	return out, nil
}

func resultsCounts(nodes []*node) (hits, misses int64) {
	for _, n := range nodes {
		st := n.srv.ResultsStats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// runIngestMix writes beside reads of the same layers: one node, one
// connection uploading archived footage one segment per request (waiting
// for each ack), and a second connection
// holding one standing query (A at 0.9) on the same stream, whose push
// for each segment is its answer.
func runIngestMix(b *bench) error {
	b.params["clients"] = analystCount
	b.params["standing_query"] = "A@0.90"
	var n *node
	if err := b.derive(); err != nil {
		return err
	}
	err := b.timeSetup(func() error {
		sq := standingQuery
		sq.Stream, sq.From, sq.To = camera, 0, 1
		if err := b.guard([]queryReq{sq}, false); err != nil {
			return err
		}
		var err error
		if n, err = b.startNode("node0", b.cfg); err != nil {
			return err
		}
		// One seed segment starts the window with the stream, the
		// subscription path and the encoders warm; its samples are not
		// part of the window.
		t0 := time.Now()
		_, err = b.uploadWithStanding(n.url, camera, n, upTo(1))
		b.seedS = time.Since(t0).Seconds()
		return err
	})
	if err != nil {
		return err
	}
	// The window uploads for --seconds (the upload in flight at the
	// deadline completes); a traced run traces uploads sent in its second
	// half.
	b.settle()
	window := time.Duration(b.opt.seconds) * time.Second
	start := time.Now()
	traceFrom := -1
	run, err := b.uploadWithStanding(n.url, camera, n, func(i int) bool {
		elapsed := time.Since(start)
		if b.tr != nil && traceFrom < 0 && elapsed >= window/2 {
			traceFrom = i
			b.tr.on.Store(true)
		}
		return elapsed < window
	})
	if err != nil {
		return err
	}
	if len(run.ingestMs) == 0 {
		return errNoSamples
	}
	b.recordIngest(run)
	// The standing query has no request of its own: its answer for a
	// segment is due from the moment the segment is sent, so its
	// client-observed latency is upload sent -> push parsed. (Segment
	// committed -> push is only ~50 ms, and the p95 of a window's few
	// samples is their maximum, which one host hiccup sets: it moved by a
	// third between runs.)
	b.queryMs = run.pushMs
	b.queryVideoS = float64(len(run.pushMs)) * segment.Seconds
	b.windowS = run.wallS
	if b.tr != nil {
		half := min(max(traceFrom, 1), len(run.pushMs)-1)
		b.layers["trace.overhead_frac"] = ratio(median(run.pushMs[half:]), median(run.pushMs[:half])) - 1
	}
	segs := n.srv.SegmentsOf(camera)
	var replay []queryReq
	for idx := 0; idx < segs; idx++ {
		q := standingQuery
		q.Stream, q.From, q.To = camera, idx, idx+1
		replay = append(replay, q)
	}
	var o oracle
	if b.tr != nil {
		if o, err = b.buildOracle(replay, func(string) *node { return n }); err != nil {
			return err
		}
	}
	return b.traceLayers(traceSpec{path: "/v1/ingest", mix: [][]queryReq{replay}, streams: [][]string{{camera}}, segments: segs}, o)
}

// seed uploads segs segments to every stream through url (a node, or the
// router), each stream under a standing query, one stream at a time and
// one segment after the previous one's push. Its samples are the ingest
// metrics of the query workloads.
func (b *bench) seed(owners []*node, url string, streams []string, segs int) error {
	t0 := time.Now()
	var runs []uploadRun
	for i, s := range streams {
		run, err := b.uploadWithStanding(url, s, owners[i], upTo(segs))
		if err != nil {
			return err
		}
		runs = append(runs, run)
	}
	b.seedS = time.Since(t0).Seconds()
	b.recordIngest(runs...)
	return nil
}

// measureQueries runs the analysts for the window. In a traced run the
// window is split: the first half untraced, the second traced, and the
// difference of the halves' medians is the tracing overhead.
func (b *bench) measureQueries(url string, gen generator, o oracle) error {
	window := time.Duration(b.opt.seconds) * time.Second
	b.settle()
	if b.tr == nil {
		w := b.analysts(url, window, gen, o)
		if len(w.latMs) == 0 {
			return errNoSamples
		}
		b.queryMs, b.queryVideoS, b.windowS = w.latMs, w.videoS, w.wallS
		return nil
	}
	plain := b.analysts(url, window/2, gen, o)
	b.tr.on.Store(true)
	traced := b.analysts(url, window/2, gen, o)
	if len(plain.latMs) == 0 || len(traced.latMs) == 0 {
		return errNoSamples
	}
	b.queryMs = append(plain.latMs, traced.latMs...)
	b.layers["trace.overhead_frac"] = ratio(median(traced.latMs), median(plain.latMs)) - 1
	return nil
}

// traceSpec says what a traced run replays: per node, the requests and
// streams it owns.
type traceSpec struct {
	path          string // the clients' operation
	routed        bool
	mix           [][]queryReq
	streams       [][]string
	segments      int
	resultsBudget int64
}

// traceLayers finishes a traced run: HTTP figures from the window's spans,
// store figures from the nodes, then (nodes closed) the engine, codec and
// ingest replays, and finally the span dump. Untraced runs return at once.
func (b *bench) traceLayers(ts traceSpec, o oracle) error {
	if b.tr == nil {
		return nil
	}
	for k, v := range httpLayers(b.tr.snapshot(), ts.path, ts.routed) {
		b.layers[k] = v
	}
	if _, ok := b.layers["results.hit_rate"]; !ok {
		b.layers["results.hit_rate"] = 0 // no results store on this workload
	}
	var live, garbage int64
	for _, n := range b.nodes {
		st := n.srv.Stats()
		live += st.LiveBytes
		garbage += st.GarbageBytes
	}
	b.layers["kvstore.garbage_frac"] = ratio(float64(garbage), float64(live+garbage))
	b.layers["core.configure_s"] = b.configureS
	b.layers["ingest.seed_s"] = b.seedS
	b.layers["sub.commit_to_push_ms"] = median(b.standingMs)

	nodes := b.nodes
	if err := b.closeAll(); err != nil {
		return err
	}
	tally := newTally()
	for i, n := range nodes {
		if err := b.replayQueries(n, ts.mix[i], ts.resultsBudget, o, tally); err != nil {
			return err
		}
	}
	b.engineLayers(tally)
	if err := b.replayCodec(nodes[0], ts.streams[0], ts.segments, ts.mix[0]); err != nil {
		return err
	}
	if err := b.replayIngest(); err != nil {
		return err
	}
	return b.tr.dump(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.opt.workload, b.opt.seed)))
}
