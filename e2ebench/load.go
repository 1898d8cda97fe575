package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/segment"
)

// analystCount is the number of closed-loop query clients: the
// container's core count.
const analystCount = 2

// windowResult is what one closed-loop query window measured.
type windowResult struct {
	latMs  []float64
	videoS float64 // video-seconds answered correctly
	wallS  float64
}

// analysts runs two closed-loop analysts against url for the window: each
// sends its next query only after the previous answer's done trailer has
// been parsed, and checks the answer against the oracle.
func (b *bench) analysts(url string, window time.Duration, gen generator, o oracle) windowResult {
	var (
		mu  sync.Mutex
		out windowResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < analystCount; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; b.ctx.Err() == nil; seq++ {
				q, ok := gen.next(c, deadline)
				if !ok {
					return
				}
				key := requestKey(connections[c], seq)
				t0 := time.Now()
				chunks, _, err := client(url, key).Query(b.ctx, q.wire())
				t1 := time.Now()
				if err == nil {
					err = o.check(q, chunks)
				}
				b.op("query", err)
				b.tr.client(key, "/v1/query", t0, t1)
				if err != nil {
					continue
				}
				mu.Lock()
				out.latMs = append(out.latMs, ms(t1.Sub(t0)))
				out.videoS += q.videoSeconds()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wallS = time.Since(start).Seconds()
	return out
}

// warm issues every request of mix once through url, checking each
// answer: the dashboard's first refresh, which fills the results store.
func (b *bench) warm(url string, mix []queryReq, o oracle) {
	for i, q := range mix {
		chunks, _, err := client(url, requestKey("c0", i)).Query(b.ctx, q.wire())
		if err == nil {
			err = o.check(q, chunks)
		}
		b.op("warm query", err)
	}
}

// uploadRun is what one upload phase with a standing query measured.
type uploadRun struct {
	ingestMs   []float64
	pushMs     []float64 // request sent -> push received
	standingMs []float64 // segment committed -> push received
	videoS     float64   // video-seconds committed
	wallS      float64   // first request sent -> last ack
	stored     int64     // owner's disk bytes once the uploads committed
	storedS    float64   // video-seconds the owner holds
}

// standingQuery is the subscription every upload phase holds: the
// monitoring cascade A at accuracy 0.9.
var standingQuery = queryReq{Query: "A", Accuracy: 0.9, Chunk: 1}

// uploadWithStanding holds one standing subscription on stream (through
// url: a node, or the router in front of it) while a second connection
// uploads the camera's archived footage, one segment per POST /v1/ingest,
// waiting for each ack (not for the push: the standing query's evaluation
// of one segment competes with the next upload's transcode), for as long
// as more allows. It then waits for every upload's push, stamps each
// against the upload's send time and the owner's commit time, and checks
// each pushed chunk against an in-process historical query of that
// segment.
func (b *bench) uploadWithStanding(url, stream string, owner *node, more func(i int) bool) (uploadRun, error) {
	var run uploadRun
	type push struct {
		at    time.Time
		chunk api.QueryChunk
	}
	var (
		mu     sync.Mutex
		pushes = map[int]push{}
	)
	kick := make(chan struct{}, 1)
	acked := make(chan struct{})
	subCtx, cancelSub := context.WithCancel(b.ctx)
	subEnded := make(chan struct{})
	var subErr error
	go func() {
		defer close(subEnded)
		sq := standingQuery
		_, subErr = client(url, requestKey("sub", 0)).Subscribe(subCtx, api.SubscribeRequest{
			Stream: stream, Query: sq.Query, Accuracy: sq.Accuracy, Buffer: 64,
		}, func(ev api.SubEvent) error {
			switch {
			case ev.Ack != nil:
				close(acked)
			case ev.Chunk != nil:
				now := time.Now()
				mu.Lock()
				if _, dup := pushes[ev.Chunk.Seg0]; !dup {
					pushes[ev.Chunk.Seg0] = push{at: now, chunk: *ev.Chunk}
				}
				mu.Unlock()
				select {
				case kick <- struct{}{}:
				default:
				}
			}
			return nil
		})
	}()
	stopSub := func() {
		cancelSub()
		<-subEnded
	}
	defer stopSub()
	select {
	case <-acked:
	case <-subEnded:
		return run, fmt.Errorf("subscribe %s: %v", stream, subErr)
	case <-time.After(20 * time.Second):
		return run, fmt.Errorf("subscribe %s: no ack", stream)
	}

	base := owner.srv.SegmentsOf(stream)
	// pushed waits (bounded) until the segments [base, last) are pushed.
	pushed := func(last int, timeout time.Duration) {
		deadline := time.After(timeout)
		for {
			mu.Lock()
			missing := false
			for idx := base; idx < last; idx++ {
				if _, ok := pushes[idx]; !ok {
					missing = true
				}
			}
			mu.Unlock()
			if !missing {
				return
			}
			select {
			case <-kick:
			case <-deadline:
				return
			case <-subEnded:
				return
			}
		}
	}
	start := time.Now()
	sent := map[int]time.Time{}
	for i := 0; more(i) && b.ctx.Err() == nil; i++ {
		key := requestKey("up", base+i)
		t0 := time.Now()
		_, err := client(url, key).Ingest(b.ctx, api.IngestRequest{Stream: stream, Scene: camera, Segments: 1})
		t1 := time.Now()
		b.op("ingest", err)
		b.tr.client(key, "/v1/ingest", t0, t1)
		if err != nil {
			return run, fmt.Errorf("ingest %s: %w", stream, err)
		}
		sent[base+i] = t0
		run.ingestMs = append(run.ingestMs, ms(t1.Sub(t0)))
		run.videoS += segment.Seconds
	}
	run.wallS = time.Since(start).Seconds()
	last := base + len(sent)

	// Every committed segment must be pushed in time; a missing push is a
	// failed operation below.
	pushed(last, 60*time.Second)
	var err error
	run.stored, err = diskBytes(owner.dir)
	if err != nil {
		return run, err
	}
	run.storedS = float64(owner.srv.SegmentsOf(stream)) * segment.Seconds
	stopSub()

	for idx := base; idx < last; idx++ {
		mu.Lock()
		p, ok := pushes[idx]
		mu.Unlock()
		if !ok {
			b.op("push", fmt.Errorf("%s/%d: no push", stream, idx))
			continue
		}
		q := standingQuery
		q.Stream, q.From, q.To = stream, idx, idx+1
		ref, err := b.reference(owner.srv, q)
		if err == nil && digest([]api.QueryChunk{p.chunk}) != digest(ref) {
			err = fmt.Errorf("push %s: %w", q.key(), errWrongAnswer)
		}
		b.op("push", err)
		if err != nil {
			continue
		}
		run.pushMs = append(run.pushMs, ms(p.at.Sub(sent[idx])))
		if c, ok := owner.commits.when(stream, idx); ok {
			run.standingMs = append(run.standingMs, ms(p.at.Sub(c)))
		}
	}
	return run, nil
}

// recordIngest adds an upload phase's samples to the run's ingest metrics.
func (b *bench) recordIngest(runs ...uploadRun) {
	var stored int64
	var storedS float64
	for _, r := range runs {
		b.ingestMs = append(b.ingestMs, r.ingestMs...)
		b.pushMs = append(b.pushMs, r.pushMs...)
		b.standingMs = append(b.standingMs, r.standingMs...)
		b.ingestVideoS += r.videoS
		b.ingestWallS += r.wallS
		stored += r.stored
		storedS += r.storedS
	}
	b.storedBytes, b.storedVideoS = stored, storedS
}

// errNoSamples reports a window that measured nothing.
var errNoSamples = errors.New("the measured window completed no operation")
