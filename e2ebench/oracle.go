package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/api"
	"repro/internal/query"
	"repro/internal/server"
)

// digest hashes the parts of an answer the oracle compares: each chunk's
// span, its detections (PTS, label, exact position bits) and the final
// stage's consumed PTS.
func digest(chunks []api.QueryChunk) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range chunks {
		put(uint64(c.Seg0))
		put(uint64(c.Seg1))
		put(uint64(len(c.Detections)))
		for _, d := range c.Detections {
			put(uint64(d.PTS))
			h.Write([]byte(d.Label))
			put(math.Float64bits(d.X))
			put(math.Float64bits(d.Y))
		}
		put(uint64(len(c.FinalPTS)))
		for _, p := range c.FinalPTS {
			put(uint64(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracle holds the reference digest of every distinct request.
type oracle map[string]string

// reference computes q's answer in-process on the node that owns its
// stream, chunked exactly as the request is.
func (b *bench) reference(srv *server.Server, q queryReq) ([]api.QueryChunk, error) {
	cascade, names, err := query.ByName(q.Query)
	if err != nil {
		return nil, err
	}
	var chunks []api.QueryChunk
	for _, sp := range q.spans() {
		res, err := srv.Query(b.ctx, q.Stream, cascade, names, q.Accuracy, sp[0], sp[1])
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.key(), err)
		}
		chunks = append(chunks, api.ChunkFromResult(sp[0], sp[1], res))
	}
	return chunks, nil
}

// buildOracle computes the reference digest of every request in mix;
// owner maps a stream to the node serving it.
func (b *bench) buildOracle(mix []queryReq, owner func(stream string) *node) (oracle, error) {
	o := oracle{}
	for _, q := range mix {
		if _, ok := o[q.key()]; ok {
			continue
		}
		chunks, err := b.reference(owner(q.Stream).srv, q)
		if err != nil {
			return nil, err
		}
		o[q.key()] = digest(chunks)
	}
	if b.opt.corruptReference && len(mix) > 0 {
		o[mix[0].key()] = "corrupted"
	}
	return o, nil
}

// check compares an HTTP answer with the oracle.
func (o oracle) check(q queryReq, chunks []api.QueryChunk) error {
	want, ok := o[q.key()]
	if !ok {
		return fmt.Errorf("no reference for %s", q.key())
	}
	if digest(chunks) != want {
		return fmt.Errorf("%s: %w", q.key(), errWrongAnswer)
	}
	return nil
}
