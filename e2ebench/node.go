package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/format"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/tenant"
)

// profileClip is the profiling clip length of the derivation. Shorter
// clips change the derived configuration: at 60 frames it collapses to one
// raw format and query decode leaves the workloads.
const profileClip = 120

// Every request the benchmark sends presents an API key of its own,
// cycling through keyCycle keys per connection. All keys resolve to the
// default tenant, so admission is exactly the keyless path; the key only
// lets a traced run attribute node and router spans to the one client
// request that caused them (the router forwards it on every node call).
// One key per connection is not enough: a handler can outlive its client's
// view of the request (the router releases its snapshot lease after the
// done line is flushed), so that node call would land inside the next
// request of the same connection.
const keyCycle = 1024

// connections are the benchmark's client roles: two analysts, the
// uploader and the standing-query subscriber.
var connections = []string{"c0", "c1", "up", "sub"}

func requestKey(conn string, seq int) string {
	return fmt.Sprintf("bench-%s-%04d", conn, seq%keyCycle)
}

func benchTenants() *tenant.Registry {
	keys := map[string]string{}
	for _, c := range connections {
		for i := 0; i < keyCycle; i++ {
			keys[requestKey(c, i)] = tenant.DefaultName
		}
	}
	return tenant.NewRegistry(nil, keys)
}

// derive sets the run's configuration: the one `vstore configure -clip 120`
// derives. Like a deployment, which derives once and loads the saved
// configuration every time it opens, an untraced run loads the one an
// earlier run of the same binary saved under .bench_build/config/, and
// only the load counts as set-up. The derivation is deterministic and
// costs about 20 s, which would otherwise leave no room for a window long
// enough to average out a shared host's speed changes. A traced run, and a
// run that finds nothing saved, derive afresh (core.configure_s) and save
// the result; the derivation is never part of setup_s.
func (b *bench) derive() error {
	b.params["profile_clip_frames"] = profileClip
	path, err := savedConfigPath()
	if err != nil {
		return err
	}
	if !b.opt.trace {
		var cfg *core.Config
		if b.timeSetup(func() (err error) { cfg, err = core.Load(path); return err }) == nil {
			b.cfg = cfg
			b.params["config"] = "loaded"
			b.params["storage_formats"] = len(cfg.Derivation.SFs)
			return nil
		}
	}
	t0 := time.Now()
	env := experiments.NewEnv(profileClip)
	cfg, err := core.Configure(env.StandardConsumers(), core.Options{StorageProfiler: env.Profiler("jackson")})
	if err != nil {
		return fmt.Errorf("derive configuration: %w", err)
	}
	b.configureS = time.Since(t0).Seconds()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := cfg.Save(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// Serve the saved configuration, as every other run does: the derived
	// one also holds the profilers, whose frames would stay live and change
	// how often the collector runs during the window.
	if b.cfg, err = core.Load(path); err != nil {
		return err
	}
	b.params["config"] = "derived"
	b.params["storage_formats"] = len(b.cfg.Derivation.SFs)
	return nil
}

// savedConfigPath names the saved configuration after the running binary's
// digest, so code that could derive differently never loads it.
func savedConfigPath() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(buildDir, "config", fmt.Sprintf("clip%d-%x.json", profileClip, h.Sum(nil)[:8])), nil
}

// guard fails set-up unless the derived configuration binds at least one
// stage of the workload's queries to an encoded storage format and, when
// needCold is set, the mix reads from both the fast and the cold tier — so
// a cheaper set-up cannot silently drop a layer from the workload.
func (b *bench) guard(reqs []queryReq, needCold bool) error {
	placements := b.cfg.Placements()
	encoded := false
	tiers := map[core.Placement]bool{}
	for _, q := range reqs {
		_, names, err := query.ByName(q.Query)
		if err != nil {
			return err
		}
		for _, name := range names {
			_, sf, err := b.cfg.BindingFor(name, q.Accuracy)
			if err != nil {
				return fmt.Errorf("set-up guard: %w", err)
			}
			if !sf.Coding.Raw {
				encoded = true
			}
			tiers[placements[sf.Key()]] = true
		}
	}
	if !encoded {
		return errors.New("set-up guard: no stage of the workload reads an encoded storage format")
	}
	if needCold && !(tiers[core.PlaceFast] && tiers[core.PlaceCold]) {
		return errors.New("set-up guard: the query mix does not read from both the fast and the cold tier")
	}
	return nil
}

// node is one store served over a loopback HTTP listener of the
// benchmark's own, with the api.Server handler mounted inside it.
type node struct {
	name    string
	dir     string
	srv     *server.Server
	as      *api.Server
	hs      *http.Server
	served  chan error
	url     string
	commits *commitLog
	stopLog func()
}

// startNode opens a store under the run directory, installs cfg and serves
// it on 127.0.0.1 with the default admission limits.
func (b *bench) startNode(name string, cfg *core.Config) (*node, error) {
	dir := filepath.Join(b.dir, name)
	srv, err := server.OpenWith(dir, server.Options{})
	if err != nil {
		return nil, err
	}
	if err := srv.Reconfigure(cfg); err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{name: name, dir: dir, srv: srv, commits: newCommitLog()}
	n.stopLog = srv.SubscribeCommits(n.commits.observe)
	n.as = api.New(srv, api.Limits{Tenants: benchTenants()})
	n.hs, n.served, n.url, err = serve(b.tr.wrap(layerAPI, n.as.Handler()))
	if err != nil {
		n.stopLog()
		srv.Close()
		return nil, err
	}
	b.nodes = append(b.nodes, n)
	return n, nil
}

// close drains the node (standing queries end first, then in-flight
// requests) and closes its store. Safe to call twice.
func (n *node) close() error {
	if n.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := n.as.Shutdown(ctx)
	if herr := stopServing(ctx, n.hs, n.served); err == nil {
		err = herr
	}
	n.stopLog()
	if cerr := n.srv.Close(); err == nil {
		err = cerr
	}
	n.srv = nil
	return err
}

// routerNode is a cluster.Router served over a loopback listener.
type routerNode struct {
	rt     *cluster.Router
	hs     *http.Server
	served chan error
	url    string
}

func (b *bench) startRouter(nodes []*node) (*routerNode, error) {
	var members []cluster.Node
	for _, n := range nodes {
		members = append(members, cluster.Node{Name: n.name, URL: n.url})
	}
	rt, err := cluster.NewRouter(cluster.Options{Nodes: members})
	if err != nil {
		return nil, err
	}
	r := &routerNode{rt: rt}
	r.hs, r.served, r.url, err = serve(b.tr.wrap(layerCluster, rt.Handler()))
	if err != nil {
		return nil, err
	}
	b.router = r
	return r, nil
}

func (r *routerNode) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := r.rt.Shutdown(ctx)
	if herr := stopServing(ctx, r.hs, r.served); err == nil {
		err = herr
	}
	return err
}

// serve starts an http.Server for h on a free loopback port.
func serve(h http.Handler) (*http.Server, chan error, string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(lis) }()
	return hs, served, "http://" + lis.Addr().String(), nil
}

// stopServing shuts hs down and waits for its Serve goroutine to return.
func stopServing(ctx context.Context, hs *http.Server, served chan error) error {
	err := hs.Shutdown(ctx)
	if err != nil {
		_ = hs.Close()
	}
	if serr := <-served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpClient is the load generator's one transport: at most two
// connections per host, the container's core count.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxConnsPerHost:     2,
	MaxIdleConnsPerHost: 2,
	IdleConnTimeout:     30 * time.Second,
}}

// client returns an API client for url presenting the given key.
func client(url, key string) *api.Client {
	return &api.Client{BaseURL: url, APIKey: key, HTTP: httpClient}
}

// commitLog stamps the moment each segment commits on a node — the
// store's own SubscribeCommits hook, observed from outside.
type commitLog struct {
	mu sync.Mutex
	at map[string]time.Time
}

func newCommitLog() *commitLog { return &commitLog{at: map[string]time.Time{}} }

func (c *commitLog) observe(cm segment.Commit) {
	now := time.Now()
	c.mu.Lock()
	k := fmt.Sprintf("%s/%d", cm.Stream, cm.Idx)
	if _, ok := c.at[k]; !ok {
		c.at[k] = now
	}
	c.mu.Unlock()
}

func (c *commitLog) when(stream string, idx int) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.at[fmt.Sprintf("%s/%d", stream, idx)]
	return t, ok
}

// diskBytes sums the sizes of the files under dir: the store's footprint.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// encodedFormats returns the configuration's encoded storage formats in
// table order.
func encodedFormats(cfg *core.Config) []format.StorageFormat {
	var out []format.StorageFormat
	for _, sf := range cfg.StorageFormats() {
		if !sf.Coding.Raw {
			out = append(out, sf)
		}
	}
	return out
}
