package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names recorded at the HTTP boundaries.
const (
	layerAPI     = "api"
	layerCluster = "cluster"
	layerClient  = "client"
)

// span is one timed call at a layer boundary. Spans of one client request
// share Req (the API key of the one client request that caused them);
// Parent links a span to the span that caused it inside one process call.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    string  `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"` // since the tracer started
	End    int64   `json:"end_ns"`
	Bytes  int64   `json:"bytes,omitempty"`   // response or value bytes
	Pixels int64   `json:"pixels,omitempty"`  // pixels an operator examined
	WallMs float64 `json:"wall_ms,omitempty"` // the handler's own wall_ms trailer
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil tracer (the untraced run) records nothing and wraps
// nothing.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// add records s, stamping an ID when it has none.
func (t *tracer) add(s span) {
	if !t.enabled() {
		return
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records [start, now) under name.
func (t *tracer) timed(id, parent int64, name string, start time.Time, bytes, pixels int64) {
	if !t.enabled() {
		return
	}
	t.add(span{ID: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(time.Now()), Bytes: bytes, Pixels: pixels})
}

// client records one client-observed request.
func (t *tracer) client(key, path string, start, end time.Time) {
	if !t.enabled() {
		return
	}
	t.add(span{Req: key, Name: layerClient + " " + path, Start: t.ns(start), End: t.ns(end)})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap times every request h serves while tracing is on, recording the
// response bytes and the wall_ms the handler reported in its own trailer
// (the query stream's done line, or the ingest response).
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		tw := &tapWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(tw, r)
		end := time.Now()
		t.add(span{Req: r.Header.Get("X-API-Key"), Name: layer + " " + r.URL.Path,
			Start: t.ns(start), End: t.ns(end), Bytes: tw.n, WallMs: tw.wallMs()})
	})
}

// tapWriter counts response bytes and keeps the tail of the body, where
// the handler's wall_ms trailer sits.
type tapWriter struct {
	http.ResponseWriter
	n    int64
	tail []byte
}

const tapTail = 4 << 10

func (w *tapWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	w.tail = append(w.tail, p[:n]...)
	if len(w.tail) > tapTail {
		w.tail = append(w.tail[:0], w.tail[len(w.tail)-tapTail:]...)
	}
	return n, err
}

func (w *tapWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wallMs parses the last line of the body for a wall_ms figure.
func (w *tapWriter) wallMs() float64 {
	body := bytes.TrimSpace(w.tail)
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		body = body[i+1:]
	}
	var line struct {
		WallMs float64 `json:"wall_ms"`
		Done   *struct {
			WallMs float64 `json:"wall_ms"`
		} `json:"done"`
	}
	if json.Unmarshal(body, &line) != nil {
		return 0
	}
	if line.Done != nil {
		return line.Done.WallMs
	}
	return line.WallMs
}

// dump writes every span as one JSON line to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNs is the part of parent's interval that none of the children
// covers. Children may overlap each other (the engine runs them
// concurrently), so it subtracts the union of their clipped intervals,
// not the sum of their durations.
func selfNs(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			if cur.hi > cur.lo {
				covered += cur.hi - cur.lo
			}
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	if cur.hi > cur.lo {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// childrenOf indexes spans by parent ID.
func childrenOf(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// within returns the spans of req named with prefix that lie inside outer.
func within(spans []span, outer span, prefix string) []span {
	var out []span
	for _, s := range spans {
		if s.Req == outer.Req && strings.HasPrefix(s.Name, prefix) && s.Start >= outer.Start && s.End <= outer.End {
			out = append(out, s)
		}
	}
	return out
}

// httpLayers derives the api, cluster and wire figures from the HTTP spans
// of the traced window. path is the workload's client operation
// (/v1/query or /v1/ingest); routed says the router is the outermost
// handler.
func httpLayers(spans []span, path string, routed bool) map[string]float64 {
	byReq := map[string][]span{}
	for _, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	outer := layerAPI
	if routed {
		outer = layerCluster
	}
	var handler, self, wire, respBytes, clusterH, clusterSelf, nodeCalls []float64
	for _, s := range spans {
		switch s.Name {
		case layerAPI + " " + path:
			handler = append(handler, float64(s.dur())/1e6)
			self = append(self, float64(s.dur())/1e6-s.WallMs)
		case layerCluster + " " + path:
			nodes := within(byReq[s.Req], s, layerAPI+" ")
			clusterH = append(clusterH, float64(s.dur())/1e6)
			clusterSelf = append(clusterSelf, float64(selfNs(s, nodes))/1e6)
			nodeCalls = append(nodeCalls, float64(len(nodes)))
		case layerClient + " " + path:
			hs := within(byReq[s.Req], s, outer+" "+path)
			if len(hs) != 1 {
				continue
			}
			wire = append(wire, float64(s.dur()-hs[0].dur())/1e6)
			respBytes = append(respBytes, float64(hs[0].Bytes))
		}
	}
	return map[string]float64{
		"api.handler_ms":               mean(handler),
		"api.self_ms":                  mean(self),
		"api.wire_ms":                  mean(wire),
		"api.response_bytes_per_query": mean(respBytes),
		"cluster.handler_ms":           mean(clusterH),
		"cluster.self_ms":              mean(clusterSelf),
		"cluster.node_calls_per_query": mean(nodeCalls),
	}
}
