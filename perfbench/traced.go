package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"heteromap/internal/cluster"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/online"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/serve"
	"heteromap/internal/train"
)

// layerMetrics lists the per-layer metrics in BENCHMARK.json order. A
// metric reads 0 on a workload that does not exercise its layer.
var layerMetrics = []metricDef{
	{"http.floor_us", "us"},
	{"http.transport_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.handler_inproc_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.registry_us", "us"},
	{"serve.cache_hit_us", "us"},
	{"serve.provenance_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.unattributed_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions_per_s", "1/s"},
	{"serve.batch_items_mean", "count"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.batch_wait_p50_us", "us"},
	{"serve.inference_p50_us", "us"},
	{"serve.queue_full", "count"},
	{"serve.fallbacks", "count"},
	{"serve.hedges", "count"},
	{"predict.tree_us", "us"},
	{"predict.nn_us", "us"},
	{"predict.nn_batch_us_per_item", "us"},
	{"predict.nn_train_s", "s"},
	{"feature.key_us", "us"},
	{"train.build_db_s", "s"},
	{"cluster.router_self_us", "us"},
	{"cluster.shard_us", "us"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.peer_share_max", "ratio"},
	{"obs.federate_ms", "ms"},
	{"obs.metrics_scrape_ms", "ms"},
	{"obs.trace_overhead_pct", "%"},
	{"online.observe_us", "us"},
	{"online.tick_ms", "ms"},
	{"durable.wal_append_us", "us"},
	{"machine.evaluate_us", "us"},
	{"ledger.gap_pct", "%"},
	{"ledger.trace_overhead_p50_us", "us"},
}

// span is one timed call into a layer. Spans of one request share the
// trace id the client sent; the layer hierarchy gives the parent.
type span struct {
	trace string
	name  string
	node  int // serving node of a serve.handler span
	start time.Time
	end   time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// selfTime is the parent's duration minus the part of its interval that
// its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.dur() - covered
}

// spanHandler records a span around every request the wrapped handler
// serves, keyed by the inbound trace header.
func spanHandler(rec *recorder, name string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := r.Header.Get(obs.TraceHeader)
		start := time.Now()
		h.ServeHTTP(w, r)
		if tid != "" {
			rec.add(span{trace: tid, name: name, node: node, start: start, end: time.Now()})
		}
	})
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, ln.Addr().String(), nil
}

// models are the predictors `heteromap serve -predictor deep` builds.
type models struct {
	pair     machine.Pair
	tree     *dtree.Tree
	deep     *nn.Network
	buildDB  time.Duration
	trainDur time.Duration
}

func buildModels() (*models, error) {
	pair := machine.PrimaryPair()
	m := &models{pair: pair, tree: dtree.New(pair.Limits())}
	start := time.Now()
	cfg := train.FastConfig()
	cfg.Objective = train.Performance
	db := train.BuildDatabase(pair, cfg)
	m.buildDB = time.Since(start)
	m.deep = nn.New(pair.Limits(), nn.Options{Hidden: 128})
	start = time.Now()
	if err := m.deep.Train(db.Samples); err != nil {
		return nil, err
	}
	m.trainDur = time.Since(start)
	return m, nil
}

// node is one in-process serve node built with the CLI's options.
type node struct {
	srv  *serve.Server
	h    http.Handler // srv.Handler()
	reg  *serve.Registry
	mgr  *online.Manager
	http *http.Server
	addr string
}

func newNode(ms *models, s spec, dir string, disableTracing bool) (*node, error) {
	reg := serve.NewRegistry(ms.pair)
	if _, err := reg.Register("tree", "builtin decision tree", ms.tree); err != nil {
		return nil, err
	}
	if _, err := reg.Register("deep", "Deep.128 trained at startup", ms.deep); err != nil {
		return nil, err
	}
	if err := reg.SetDefault("deep"); err != nil {
		return nil, err
	}
	ref, err := reg.Get("")
	if err != nil {
		return nil, err
	}
	cases, err := serve.RecordGoldenSet(ref, serve.DefaultGoldenRequests(32, 1), 0)
	if err != nil {
		return nil, err
	}
	n := &node{reg: reg}
	opts := serve.Options{
		Pair:           ms.pair,
		Registry:       reg,
		Canary:         &serve.CanaryConfig{Cases: cases, MaxMismatches: len(cases), MaxLatency: 10 * time.Millisecond},
		DisableTracing: disableTracing,
	}
	if s.online {
		n.mgr = online.New(onlineOptions(ms.pair, dir))
		opts.Online = n.mgr
		opts.DurableDir = filepath.Join(dir, "serve")
		opts.CacheSnapshotEvery = 30 * time.Second
	}
	n.srv = serve.New(opts)
	if s.online {
		n.srv.RecoverDurable()
		n.mgr.Start()
	}
	return n, nil
}

// onlineOptions mirrors `serve -online -uncertainty-floor 0.3
// -durable-dir <dir> -shadow-dir <dir>/shadow`.
func onlineOptions(pair machine.Pair, dir string) online.Options {
	return online.Options{
		Pair:             pair,
		Objective:        train.Performance,
		Model:            "deep",
		UncertaintyFloor: 0.3,
		ShadowDir:        filepath.Join(dir, "shadow"),
		DurableDir:       filepath.Join(dir, "online"),
	}
}

func (n *node) serveTraced(rec *recorder, idx int) error {
	n.h = n.srv.Handler()
	hs, addr, err := listen(spanHandler(rec, "serve.handler", idx, n.h))
	n.http, n.addr = hs, addr
	return err
}

func (n *node) close() {
	if n.http != nil {
		n.http.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	if n.mgr != nil {
		n.mgr.Stop()
		n.mgr.Close()
	}
}

// sent is one replayed request.
type sent struct {
	conn, n int
	req     request
	start   time.Time
}

func traceID(conn, n int) string { return fmt.Sprintf("b0-%x-%x", conn, n) }

// tracedRun replays the workload's request sequence into in-process
// instances with spans around each layer and returns the per-layer
// metrics, printing the ledger, and the replay's per-connection
// statistics, whose answers are checked like the process run's.
func tracedRun(p *plan, v *validator, pr *processRun, e2e map[string]float64, dir string) (map[string]float64, []*connStats, error) {
	out := pr.layersFromProcesses()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ms, err := buildModels()
	if err != nil {
		return nil, nil, err
	}
	out["train.build_db_s"] = ms.buildDB.Seconds()
	out["predict.nn_train_s"] = ms.trainDur.Seconds()

	rec := &recorder{}
	var nodes []*node
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	for i := 0; i < p.spec.nodes; i++ {
		n, err := newNode(ms, p.spec, filepath.Join(dir, fmt.Sprintf("node%d", i)), false)
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, n)
		if err := n.serveTraced(rec, i); err != nil {
			return nil, nil, err
		}
	}
	base := "http://" + nodes[0].addr
	var rt *cluster.Router
	if p.spec.router {
		var peers []string
		for _, n := range nodes {
			peers = append(peers, n.addr)
		}
		rt, err = cluster.NewRouter(cluster.RouterOptions{Addr: "127.0.0.1:0", Peers: peers, Replicas: 2})
		if err != nil {
			return nil, nil, err
		}
		hs, addr, err := listen(spanHandler(rec, "cluster.router", -1, rt.Handler()))
		if err != nil {
			return nil, nil, err
		}
		defer func() {
			hs.Close()
			rt.Shutdown(context.Background())
		}()
		base = "http://" + addr
	}

	// The replay: the same closed loop, with a trace id on every request
	// and a client span around every round trip.
	g := newGenerator(p, newValidator(p), base)
	g.header = func(h http.Header, c, n int) { h.Set(obs.TraceHeader, traceID(c, n)) }
	var sentMu sync.Mutex
	var sents []sent
	g.observe = func(c, n int, req request, start time.Time, rtt time.Duration) {
		rec.add(span{trace: traceID(c, n), name: "client", start: start, end: start.Add(rtt)})
		sentMu.Lock()
		sents = append(sents, sent{c, n, req, start})
		sentMu.Unlock()
	}
	replay := min(pr.timed/2, 4*time.Second)
	var pt phaseTimes
	done := make(chan []*connStats, 1)
	go func() { done <- g.run(&pt) }()
	time.Sleep(warmup / 2)
	t0 := time.Now()
	pt.timedAt.Store(t0.UnixNano())
	if len(p.phases) > 1 {
		pt.shiftAt.Store(t0.Add(replay / 2).UnixNano())
	}
	time.Sleep(replay)
	pt.stopAt.Store(time.Now().UnixNano())
	stats := <-done
	var lat []time.Duration
	for _, st := range stats {
		lat = append(lat, st.lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	out["ledger.trace_overhead_p50_us"] = us(quantile(lat, 0.5)) - e2e["latency_p50_us"]

	// Re-run each timed request's layer calls against the same warm
	// instances, one span per call.
	var ids []sent
	for _, s := range sents {
		if !s.start.Before(t0) {
			ids = append(ids, s)
		}
	}
	handlerNode := map[string]int{}
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.name == "serve.handler" {
			handlerNode[s.trace] = s.node
		}
	}
	rec.mu.Unlock()
	for _, s := range ids {
		tid := traceID(s.conn, s.n)
		if err := replayLayers(rec, tid, s.req, p.spec, nodes[handlerNode[tid]], rt); err != nil {
			return nil, nil, err
		}
	}
	if reconciled(p.spec) {
		if err := traceOverhead(ms, p, out); err != nil {
			return nil, nil, err
		}
	}
	if err := ledger(rec, ids, p.spec, e2e, out); err != nil {
		return nil, nil, err
	}

	if err := httpFloor(p, base, out); err != nil {
		return nil, nil, err
	}
	kernels(ms, p, v, out)
	if err := onlineLayers(ms, p, v, filepath.Join(dir, "collector"), out); err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// replayLayers calls each layer's public function for one request, in
// the order the handler does, recording a span per call. On the hot
// workloads it first times the whole handler the same way, in-process,
// as the independent total the layer calls are reconciled against.
func replayLayers(rec *recorder, tid string, req request, s spec, n *node, rt *cluster.Router) error {
	step := feature.DiscretizationStep
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		rec.add(span{trace: tid, name: name, start: start, end: time.Now()})
		return err
	}
	if reconciled(s) {
		r := httptest.NewRequest(http.MethodPost, pathFor(s), bytes.NewReader(req.body))
		r.Header.Set(obs.TraceHeader, tid)
		w := httptest.NewRecorder()
		if err := timed("serve.handler_inproc", func() error {
			n.h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				return fmt.Errorf("in-process handler: status %d", w.Code)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	var reqs []serve.PredictRequest
	if err := timed("serve.decode", func() error {
		if len(req.items) > 1 {
			var br serve.BatchRequest
			err := json.Unmarshal(req.body, &br)
			reqs = br.Requests
			return err
		}
		reqs = make([]serve.PredictRequest, 1)
		return json.Unmarshal(req.body, &reqs[0])
	}); err != nil {
		return err
	}
	feats := make([]feature.Vector, len(reqs))
	if err := timed("serve.resolve", func() error {
		for i := range reqs {
			f, err := serve.ResolveFeatures(&reqs[i], step)
			if err != nil {
				return err
			}
			feats[i] = f
		}
		return nil
	}); err != nil {
		return err
	}
	if rt != nil {
		timed("cluster.shard", func() error {
			for _, f := range feats {
				rt.Ring().Lookup(f.ShardHash(), 2)
			}
			return nil
		})
	}
	mods := make([]*serve.Model, len(reqs))
	if err := timed("serve.registry", func() error {
		for i := range reqs {
			m, err := n.reg.Get(reqs[i].Model)
			if err != nil {
				return err
			}
			mods[i] = m
		}
		return nil
	}); err != nil {
		return err
	}
	resps := make([]serve.PredictResponse, len(reqs))
	timed("serve.cache_hit", func() error {
		for i := range reqs {
			m, used, ver, ok := n.srv.PredictCached(reqs[i].Model, feats[i])
			resps[i] = serve.PredictResponse{Model: mods[i].Name, Version: ver, PredictorUsed: used,
				Cached: ok, M: m, TraceID: tid}
		}
		return nil
	})
	// A traced request leaves a provenance record: the answering
	// learner's tree path or NN margin, derived again per request.
	timed("serve.provenance", func() error {
		for i := range reqs {
			switch l := mods[i].Link(resps[i].PredictorUsed).(type) {
			case *dtree.Tree:
				l.ExplainPredict(feats[i])
			case *nn.Network:
				l.M1Margin(feats[i])
			}
		}
		return nil
	})
	timed("feature.key", func() error {
		for i := range feats {
			resps[i].Key = feats[i].Key()
		}
		return nil
	})
	return timed("serve.encode", func() error {
		var err error
		if len(req.items) > 1 {
			_, err = json.Marshal(serve.BatchResponse{Responses: resps})
		} else {
			_, err = json.Marshal(resps[0])
		}
		return err
	})
}

// reconciled reports whether the workload's ledger is checked: on the
// hot workloads the replayed layer calls must account for between
// minCoverage and maxCoverage of the in-process handler, timed just
// before them on the same request.
func reconciled(s spec) bool { return s.batch == 1 && !s.online }

const (
	minCoverage = 0.60
	maxCoverage = 1.10
)

// ledger folds the spans into per-layer means, checks that they add up
// and prints the table.
func ledger(rec *recorder, ids []sent, s spec, e2e map[string]float64, out map[string]float64) error {
	byTrace := map[string][]span{}
	rec.mu.Lock()
	for _, sp := range rec.spans {
		byTrace[sp.trace] = append(byTrace[sp.trace], sp)
	}
	rec.mu.Unlock()
	children := []string{"serve.decode", "serve.resolve", "serve.registry", "serve.cache_hit",
		"serve.provenance", "feature.key", "serve.encode"}
	sum := map[string]time.Duration{}
	count := 0
	for _, id := range ids {
		sps := byTrace[traceID(id.conn, id.n)]
		get := func(name string) []span {
			var o []span
			for _, sp := range sps {
				if sp.name == name {
					o = append(o, sp)
				}
			}
			return o
		}
		client, router, handler := get("client"), get("cluster.router"), get("serve.handler")
		if len(client) != 1 || len(handler) == 0 || (s.router && len(router) != 1) {
			continue // a request the server never saw completes no ledger row
		}
		count++
		if s.router {
			sum["http.transport"] += selfTime(client[0], router)
			sum["cluster.router_self"] += selfTime(router[0], handler)
		} else {
			sum["http.transport"] += selfTime(client[0], handler)
		}
		sum["serve.handler"] += handler[len(handler)-1].dur()
		for _, c := range append(children, "serve.handler_inproc", "cluster.shard") {
			for _, sp := range get(c) {
				sum[c] += sp.dur()
			}
		}
	}
	if count == 0 {
		return fmt.Errorf("ledger: no traced request completed")
	}
	mean := func(name string) float64 { return float64(sum[name]) / float64(count) / 1e3 }
	for _, name := range append(children, "http.transport", "cluster.router_self", "serve.handler",
		"serve.handler_inproc", "cluster.shard") {
		out[name+"_us"] = mean(name)
	}
	parts := 0.0
	for _, c := range children {
		parts += mean(c)
	}

	// The replayed calls ran one at a time on warm instances; on the hot
	// workloads they are set against the handler timed the same way, an
	// independent measurement. Elsewhere the parent is the handler span
	// under load, whose remainder is the batcher's work.
	parent, parentName := mean("serve.handler"), "serve.handler"
	reconcile := reconciled(s)
	if reconcile {
		parent, parentName = mean("serve.handler_inproc"), "serve.handler_inproc"
	}
	out["serve.unattributed_us"] = parent - parts
	total := mean("http.transport") + mean("cluster.router_self") + mean("serve.handler")
	p50 := e2e["latency_p50_us"]
	out["ledger.gap_pct"] = (total - p50) / p50 * 100

	fmt.Printf("ledger %s: %d traced requests, mean microseconds per request\n", s.name, count)
	row := func(indent, name string, v float64) { fmt.Printf("  %s%-24s %10.3f\n", indent, name, v) }
	row("", "http.transport", mean("http.transport"))
	if s.router {
		row("", "cluster.router_self", mean("cluster.router_self"))
	}
	row("", "serve.handler", mean("serve.handler"))
	if reconcile {
		row("  ", "serve.handler_inproc", parent)
	}
	for _, c := range children {
		row("    ", c, mean(c))
	}
	row("    ", "serve.unattributed", out["serve.unattributed_us"])
	row("", "sum of layers", total)
	row("", "untraced latency_p50", p50)
	fmt.Printf("  %-24s %10.2f%%\n", "gap", out["ledger.gap_pct"])
	if !reconcile {
		return nil
	}
	coverage := parts / parent
	fmt.Printf("  layer calls cover %.1f%% of %s (allowed %.0f%%-%.0f%%)\n",
		coverage*100, parentName, minCoverage*100, maxCoverage*100)
	if coverage < minCoverage || coverage > maxCoverage {
		return fmt.Errorf("ledger: layer calls sum to %.3fus, %.1f%% of the %.3fus in-process handler",
			parts, coverage*100, parent)
	}
	return nil
}
