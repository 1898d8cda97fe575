package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// bench is the state of one run: the system under test, the samples the
// measured window collected, and (in traced runs) the span recorder and
// the per-layer figures derived from it.
type bench struct {
	opt    options
	dir    string // per-run directory for the node stores
	ctx    context.Context
	cancel context.CancelFunc
	cfg    *core.Config
	tr     *tracer // nil in untraced runs
	nodes  []*node
	router *routerNode
	params map[string]any // the workload's parameters, for the environment record

	setupS, configureS, seedS float64
	hostProbeMs               float64 // hostProbeMs just before the window

	mu           sync.Mutex
	queryMs      []float64 // client-observed query latencies in the window
	queryVideoS  float64   // video-seconds answered correctly in the window
	windowS      float64   // wall length of the window
	ingestMs     []float64 // per-segment ingest request latencies
	ingestVideoS float64   // video-seconds committed by those requests
	ingestWallS  float64   // wall time the uploads took
	pushMs       []float64 // ingest request sent -> standing-query push received
	standingMs   []float64 // segment committed -> standing-query push received
	storedBytes  int64     // store disk bytes after ingest
	storedVideoS float64   // video-seconds those bytes hold
	attempted    int64
	failed       int64
	errLog       []string
	layers       map[string]float64
}

func newBench(opt options, dir string) *bench {
	ctx, cancel := runCtx()
	b := &bench{opt: opt, dir: dir, ctx: ctx, cancel: cancel, params: map[string]any{}, layers: map[string]float64{}}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(what string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errLog) < 8 {
			b.errLog = append(b.errLog, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// closeAll shuts down the router and every node, waiting for each to end.
func (b *bench) closeAll() error {
	var first error
	if b.router != nil {
		first = b.router.close()
		b.router = nil
	}
	for _, n := range b.nodes {
		if err := n.close(); err != nil && first == nil {
			first = err
		}
	}
	b.nodes = nil
	return first
}

// timeSetup runs fn and adds its wall time to the setup total.
func (b *bench) timeSetup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	b.setupS += time.Since(t0).Seconds()
	return err
}

// settle collects the garbage set-up left behind before a window opens, so
// the window does not pay for set-up's allocations, probes the host's speed
// for the environment record, and restarts the process's peak resident set
// (VmHWM), so that peak_rss_mb is the window's own peak and not that of a
// derivation or of set-up's uploads.
func (b *bench) settle() {
	runtime.GC()
	debug.FreeOSMemory()
	b.hostProbeMs = hostProbeMs()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hostProbeMs times a fixed single-threaded hash-map loop (the median of
// 15 repetitions, about 5 ms each). Shared hosts change speed by a fifth or
// more over minutes, and map-heavy code like this shows it where a pure
// arithmetic loop does not; the probe lets a reader tell such a host phase
// from a change in the program.
func hostProbeMs() float64 {
	var xs []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		m := make(map[int]int)
		for j := 0; j < 300_000; j++ {
			m[j%5000] += j
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// sample is one reported metric with its sample count.
type sample struct {
	name    string
	value   float64
	unit    string
	samples int
}

// finish computes the run's metrics and renders the human-readable report
// that precedes the result line.
func (b *bench) finish() (result, string) {
	var ms []sample
	if b.opt.trace {
		names := make([]string, 0, len(b.layers))
		for k := range b.layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			ms = append(ms, sample{name: k, value: b.layers[k], unit: layerUnit(k)})
		}
	} else {
		ms = b.endToEnd()
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	var rep strings.Builder
	env, _ := json.Marshal(b.environment())
	fmt.Fprintf(&rep, "environment %s\n", env)
	fmt.Fprintf(&rep, "setup configure=%.2fs seed=%.2fs total=%.2fs\n", b.configureS, b.seedS, b.setupS)
	for _, e := range b.errLog {
		fmt.Fprintf(&rep, "failure %s\n", e)
	}
	for _, m := range ms {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		if m.samples > 0 {
			fmt.Fprintf(&rep, "%-34s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(&rep, "%-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	if !b.opt.trace {
		fmt.Fprintf(&rep, "ingest samples ms %.0f\n", b.ingestMs)
		fmt.Fprintf(&rep, "push samples ms %.0f\n", b.pushMs)
		fmt.Fprintf(&rep, "standing samples ms %.0f\n", b.standingMs)
	}
	fmt.Fprintf(&rep, "operations attempted=%d failed=%d", b.attempted, b.failed)
	return res, rep.String()
}

// endToEnd derives the end-to-end metrics from the collected samples.
func (b *bench) endToEnd() []sample {
	okFrac := 0.0
	if b.attempted > 0 {
		okFrac = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return []sample{
		{"setup_s", b.setupS, "s", 1},
		{"query_p50_ms", median(b.queryMs), "ms", len(b.queryMs)},
		{"query_p95_ms", quantile(b.queryMs, 0.95), "ms", len(b.queryMs)},
		{"query_speed_x", ratio(b.queryVideoS, b.windowS), "x", len(b.queryMs)},
		{"ingest_speed_x", ratio(b.ingestVideoS, b.ingestWallS), "x", len(b.ingestMs)},
		{"ingest_p50_ms", median(b.ingestMs), "ms", len(b.ingestMs)},
		{"push_p50_ms", median(b.pushMs), "ms", len(b.pushMs)},
		{"stored_bytes_per_video_s", ratio(float64(b.storedBytes), b.storedVideoS), "B/s", 1},
		{"ok_frac", okFrac, "frac", int(b.attempted)},
		{"peak_rss_mb", peakRSSMB(), "MB", 1},
	}
}

// layerUnit names the unit of a per-layer metric from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb_s"):
		return "MB/s"
	case strings.Contains(name, "_ms"), strings.Contains(name, "ms_per_"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "ns_per_pixel"):
		return "ns"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_rate"):
		return "frac"
	}
	return "count"
}

// envRecord ties a result to the host and code it came from.
type envRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GOGC       int            `json:"gogc"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Params     map[string]any `json:"params"`
	HostProbe  float64        `json:"host_probe_ms"`
}

func (b *bench) environment() envRecord {
	return envRecord{
		Workload:   b.opt.workload,
		Seed:       b.opt.seed,
		Seconds:    b.opt.seconds,
		Trace:      b.opt.trace,
		Commit:     vcsRevision(),
		Source:     sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gcPercent,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Params:     b.params,
		HostProbe:  b.hostProbeMs,
	}
}

// vcsRevision is the commit the binary was built from, when the build saw
// a repository; a checkout without one reports "unknown" and the source
// digest identifies the code instead.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// outputs excluded), in path order: the code's identity without git.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (d.Name() == filepath.Base(buildDir) || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// median is the middle of xs (the mean of the two middle values for an
// even count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs: a measured value with at
// most (1-q)·n samples beyond it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
