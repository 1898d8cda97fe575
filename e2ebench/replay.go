package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ingest"
	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/results"
	"repro/internal/retrieve"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// Span names of the replays.
const (
	spanEngine = "query.engine"
	spanRead   = "segment.read"
	spanGet    = "tier.get"
	spanPut    = "tier.put"
	spanKeys   = "tier.keys"
	opPrefix   = "ops."
)

// timedKV times every Get, Keys and Put of the tiered store beneath a
// segment or results store; parent is the span the calls belong to.
type timedKV struct {
	*tier.Store
	tr     *tracer
	parent *atomic.Int64
}

func (k timedKV) Get(key string) ([]byte, error) {
	start := time.Now()
	v, err := k.Store.Get(key)
	k.tr.timed(0, k.parent.Load(), spanGet, start, int64(len(v)), 0)
	return v, err
}

// Keys lists a raw segment's frame records; timed so the listing counts
// as tier work, not segment parsing.
func (k timedKV) Keys(prefix string) []string {
	start := time.Now()
	keys := k.Store.Keys(prefix)
	k.tr.timed(0, k.parent.Load(), spanKeys, start, 0, 0)
	return keys
}

func (k timedKV) Put(key string, value []byte) error {
	start := time.Now()
	err := k.Store.Put(key, value)
	k.tr.timed(0, k.parent.Load(), spanPut, start, int64(len(value)), 0)
	return err
}

// timedReader is a retrieve.SegmentReader over a reopened store whose
// every segment read is a span, with the read's tier gets as children.
type timedReader struct {
	ts     *tier.Store
	plain  *segment.Store
	tr     *tracer
	parent int64 // the engine span
}

func (r *timedReader) Visible(stream string, sf format.StorageFormat, idx int) bool {
	return r.plain.Visible(stream, sf, idx)
}

// reader returns a segment store whose gets are children of a new span.
func (r *timedReader) reader() (int64, *segment.Store) {
	id := r.tr.id()
	p := &atomic.Int64{}
	p.Store(id)
	return id, segment.NewStore(timedKV{Store: r.ts, tr: r.tr, parent: p})
}

func (r *timedReader) GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error) {
	id, st := r.reader()
	start := time.Now()
	enc, err := st.GetEncoded(stream, sf, idx)
	r.tr.timed(id, r.parent, spanRead, start, 0, 0)
	return enc, err
}

func (r *timedReader) GetRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool) ([]*frame.Frame, int64, error) {
	id, st := r.reader()
	start := time.Now()
	frames, n, err := st.GetRaw(stream, sf, idx, keep)
	r.tr.timed(id, r.parent, spanRead, start, 0, 0)
	return frames, n, err
}

// timedOp times an operator's Run calls as children of the engine span.
type timedOp struct {
	op     ops.Operator
	tr     *tracer
	parent int64
}

func (o timedOp) Name() string { return o.op.Name() }

func (o timedOp) Run(frames []*frame.Frame) (ops.Output, ops.Stats) {
	start := time.Now()
	out, st := o.op.Run(frames)
	o.tr.timed(0, o.parent, opPrefix+o.op.Name(), start, 0, st.Pixels)
	return out, st
}

// timedIndependentOp keeps the ops.FrameIndependent marker of the wrapped
// operator, without which the engine would take its sequential path.
type timedIndependentOp struct{ timedOp }

func (timedIndependentOp) FrameIndependent() {}

func timedCascade(c query.Cascade, tr *tracer, parent int64) query.Cascade {
	out := query.Cascade{Name: c.Name}
	for _, st := range c.Stages {
		t := timedOp{op: st.Op, tr: tr, parent: parent}
		if ops.IsFrameIndependent(st.Op) {
			out.Stages = append(out.Stages, query.Stage{Op: timedIndependentOp{t}})
		} else {
			out.Stages = append(out.Stages, query.Stage{Op: t})
		}
	}
	return out
}

// replayQueries closes nothing itself: n must already be closed. It
// reopens the node's directory through tier.Open under a timing key-value
// layer, and re-runs every distinct request of mix through a query.Engine
// assembled from public parts (bindings from core.Config.BindingFor,
// timing wrappers around the reader and the operators, the results store
// when resultsBudget > 0), one engine run per chunk as the server does.
// Every replayed answer is checked against the oracle. It adds the
// query, ops, segment and tier figures to the run's layers.
func (b *bench) replayQueries(n *node, mix []queryReq, resultsBudget int64, o oracle, tally *replayTally) error {
	ts, err := tier.Open(filepath.Join(n.dir, "segments"), tier.Options{Route: segment.RouteKey})
	if err != nil {
		return err
	}
	defer ts.Close()
	resParent := &atomic.Int64{}
	var rs *results.Store
	if resultsBudget > 0 {
		rs = results.New(timedKV{Store: ts, tr: b.tr, parent: resParent}, resultsBudget,
			func(string, int) bool { return true })
	}
	plain := segment.NewStore(ts)
	seen := map[string]bool{}
	for _, q := range mix {
		if seen[q.key()] {
			continue
		}
		seen[q.key()] = true
		cascade, names, err := query.ByName(q.Query)
		if err != nil {
			return err
		}
		var binding query.Binding
		for _, name := range names {
			cf, sf, err := b.cfg.BindingFor(name, q.Accuracy)
			if err != nil {
				return err
			}
			binding = append(binding, query.StageBinding{CF: cf, SF: sf})
		}
		var chunks []api.QueryChunk
		for _, sp := range q.spans() {
			id := b.tr.id()
			resParent.Store(id)
			eng := query.Engine{
				Store:   &timedReader{ts: ts, plain: plain, tr: b.tr, parent: id},
				Results: rs,
				Workers: runtime.GOMAXPROCS(0),
			}
			start := time.Now()
			res, err := eng.Run(b.ctx, q.Stream, timedCascade(cascade, b.tr, id), binding, sp[0], sp[1])
			b.tr.timed(id, 0, spanEngine, start, 0, 0)
			if err != nil {
				return fmt.Errorf("replay %s: %w", q.key(), err)
			}
			chunks = append(chunks, api.ChunkFromResult(sp[0], sp[1], server.QueryResult{Results: []query.Result{res}}))
		}
		b.op("replay", o.check(q, chunks))
		tally.queries++
		for _, name := range names {
			tally.opRuns[name]++
		}
	}
	return nil
}

// replayTally counts the replayed queries, in total and per operator.
type replayTally struct {
	queries int
	opRuns  map[string]int // queries whose cascade includes the operator
}

func newTally() *replayTally { return &replayTally{opRuns: map[string]int{}} }

// engineLayers folds the query replay spans into per-layer figures.
func (b *bench) engineLayers(t *replayTally) {
	queries, opRuns := t.queries, t.opRuns
	spans := b.tr.snapshot()
	kids := childrenOf(spans)
	var engine, engineSelf, read, readSelf, get []float64
	var getBytes float64
	opNs, opPix := map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		switch {
		case s.Name == spanEngine:
			engine = append(engine, float64(s.dur())/1e6)
			engineSelf = append(engineSelf, float64(selfNs(s, kids[s.ID]))/1e6)
		case s.Name == spanRead:
			read = append(read, float64(s.dur())/1e6)
			readSelf = append(readSelf, float64(selfNs(s, kids[s.ID]))/1e6)
		case s.Name == spanGet && s.Parent != 0: // parentless gets are results-store adoption
			get = append(get, float64(s.dur())/1e3)
			getBytes += float64(s.Bytes)
		case strings.HasPrefix(s.Name, opPrefix):
			name := strings.TrimPrefix(s.Name, opPrefix)
			opNs[name] += s.dur()
			opPix[name] += s.Pixels
		}
	}
	// Engine and segment spans are per chunk; per-query figures divide by
	// the replayed queries.
	b.layers["query.engine_ms"] = ratio(sum(engine), float64(queries))
	b.layers["query.self_ms"] = ratio(sum(engineSelf), float64(queries))
	b.layers["segment.read_ms"] = mean(read)
	b.layers["segment.self_ms"] = mean(readSelf)
	b.layers["tier.get_us"] = mean(get)
	b.layers["tier.gets_per_query"] = ratio(float64(len(get)), float64(queries))
	b.layers["tier.bytes_read_per_query"] = ratio(getBytes, float64(queries))
	for _, name := range reportedOps {
		b.layers["ops."+name+".ms_per_query"] = ratio(float64(opNs[name])/1e6, float64(opRuns[name]))
		b.layers["ops."+name+".ns_per_pixel"] = ratio(float64(opNs[name]), float64(opPix[name]))
	}
}

// reportedOps are the operators of the two cascades.
var reportedOps = []string{"Diff", "S-NN", "NN", "Motion", "License", "OCR"}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// replayCodec times (*codec.Encoded).Decode directly on every encoded
// replica of the node's streams, and measures the retrieval waste ratio:
// frames decoded per frame delivered by full-segment retrievals of each
// encoded (storage, consumption) binding the workload's queries use.
func (b *bench) replayCodec(n *node, streams []string, segments int, mix []queryReq) error {
	ts, err := tier.Open(filepath.Join(n.dir, "segments"), tier.Options{Route: segment.RouteKey})
	if err != nil {
		return err
	}
	defer ts.Close()
	st := segment.NewStore(ts)
	var decodeMs []float64
	var decodedBytes int64
	for _, sf := range encodedFormats(b.cfg) {
		for _, stream := range streams {
			for idx := 0; idx < segments; idx++ {
				enc, err := st.GetEncoded(stream, sf, idx)
				if err != nil {
					return fmt.Errorf("codec replay %s/%s/%d: %w", stream, sf.Key(), idx, err)
				}
				start := time.Now()
				frames, _, err := enc.Decode()
				decodeMs = append(decodeMs, ms(time.Since(start)))
				if err != nil {
					return err
				}
				for _, f := range frames {
					decodedBytes += int64(f.Bytes())
				}
			}
		}
	}
	b.layers["codec.decode_ms_per_segment"] = mean(decodeMs)
	b.layers["codec.decode_mb_s"] = ratio(float64(decodedBytes)/1e6, sum(decodeMs)/1e3)

	type pair struct{ sf, cf string }
	seen := map[pair]bool{}
	r := retrieve.Retriever{Store: st}
	var decoded, delivered int64
	for _, q := range mix {
		_, names, err := query.ByName(q.Query)
		if err != nil {
			return err
		}
		for _, name := range names {
			cf, sf, err := b.cfg.BindingFor(name, q.Accuracy)
			if err != nil {
				return err
			}
			p := pair{sf.Key(), cf.Fidelity.Key()}
			if sf.Coding.Raw || seen[p] {
				continue
			}
			seen[p] = true
			for idx := 0; idx < segments; idx++ {
				_, rst, err := r.Segment(q.Stream, sf, cf, idx, nil)
				if err != nil {
					return fmt.Errorf("retrieve replay: %w", err)
				}
				decoded += rst.FramesDecoded
				delivered += rst.FramesDelivered
			}
		}
	}
	b.layers["retrieve.decoded_per_delivered"] = ratio(float64(decoded), float64(delivered))
	return nil
}

// replayIngest renders one segment of the camera and transcodes it into
// every derived storage format through (*ingest.Ingester).TranscodeSegment
// over a fresh store under a timing key-value layer, and times
// codec.Encode on the same frames for every encoded format.
func (b *bench) replayIngest() error {
	ts, err := tier.Open(filepath.Join(b.dir, "replay-ingest"), tier.Options{Route: segment.RouteKey})
	if err != nil {
		return err
	}
	defer ts.Close()
	b.tr.mu.Lock()
	before := len(b.tr.spans)
	b.tr.mu.Unlock()
	st := segment.NewStore(timedKV{Store: ts, tr: b.tr, parent: &atomic.Int64{}})
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		return err
	}
	const idx = 0
	start := time.Now()
	full := vidsim.NewSource(sc).Clip(idx*segment.Frames, segment.Frames)
	b.layers["vidsim.render_ms_per_segment"] = ms(time.Since(start))

	sfs := b.cfg.StorageFormats()
	for k := 0; k < maxReportedSFs; k++ {
		b.layers[fmt.Sprintf("ingest.transcode_ms.SF%d", k)] = 0
	}
	for k, sf := range sfs {
		ing := ingest.Ingester{Store: st, SFs: []format.StorageFormat{sf}}
		start := time.Now()
		if _, _, err := ing.TranscodeSegment(full, "replay", sf, idx); err != nil {
			return fmt.Errorf("transcode replay SF%d: %w", k, err)
		}
		if k < maxReportedSFs {
			b.layers[fmt.Sprintf("ingest.transcode_ms.SF%d", k)] = ms(time.Since(start))
		}
	}
	var put []float64
	for _, s := range b.tr.snapshot()[before:] {
		if s.Name == spanPut {
			put = append(put, float64(s.dur())/1e3)
		}
	}
	b.layers["tier.put_us"] = mean(put)
	b.layers["tier.puts_per_segment"] = float64(len(put))

	var encodeMs float64
	for _, sf := range encodedFormats(b.cfg) {
		fid := sf.Fidelity
		fid.Quality = format.QBest // the encoder applies quality, as in ingest
		w, h := vidsim.Dims(sf.Fidelity.Res)
		frames := codec.ApplyFidelity(full, fid, w, h)
		start := time.Now()
		if _, _, err := codec.Encode(frames, codec.ParamsFor(sf)); err != nil {
			return err
		}
		encodeMs += ms(time.Since(start))
	}
	b.layers["codec.encode_ms_per_segment"] = encodeMs
	return nil
}

// maxReportedSFs bounds the ingest.transcode_ms.SF<k> series; the derived
// configuration has four formats at the benchmark's profiling clip.
const maxReportedSFs = 4
