package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/online"
)

// layersFromProcesses reads the per-layer counters the real processes
// expose, as deltas over the timed phase.
func (pr *processRun) layersFromProcesses() map[string]float64 {
	b, a := pr.nodesBefore, pr.nodesAfter
	secs := pr.timed.Seconds()
	stage := func(name string) float64 {
		return histQuantile(b, a, "heteromap_stage_duration_seconds", `stage="`+name+`"`, 0.5) * 1e6
	}
	out := map[string]float64{
		"serve.cache_hit_ratio":       pr.hitRatio(),
		"serve.cache_evictions_per_s": sumDelta(b, a, "heteromap_cache_evictions_total") / secs,
		"serve.batch_items_mean": sumDelta(b, a, "heteromap_batch_items_total") /
			sumDelta(b, a, "heteromap_batches_total"),
		"serve.queue_wait_p50_us": stage("queue"),
		"serve.batch_wait_p50_us": stage("batch"),
		"serve.inference_p50_us":  stage("inference"),
		"serve.queue_full":        sumDelta(b, a, "heteromap_queue_full_total"),
		"serve.fallbacks":         sumDelta(b, a, "heteromap_fallback_events_total"),
		"serve.hedges":            sumDelta(b, a, "heteromap_hedges_total"),
		"obs.metrics_scrape_ms":   median(seconds(pr.metricsScrape)) * 1e3,
	}
	if pr.spec.router {
		rb, ra := pr.routerBefore, pr.routerAfter
		out["cluster.hedge_ratio"] = delta(rb, ra, "heteromap_router_hedges_total") /
			delta(rb, ra, "heteromap_router_forwards_total")
		out["cluster.failovers"] = delta(rb, ra, "heteromap_router_failovers_total")
		total := sumDelta(b, a, "heteromap_requests_total")
		for i := range a {
			out["cluster.peer_share_max"] = math.Max(out["cluster.peer_share_max"],
				delta(b[i], a[i], "heteromap_requests_total")/total)
		}
		out["obs.federate_ms"] = median(seconds(pr.federate)) * 1e3
	}
	if pr.spec.online {
		// online-drift is not a listed workload, so its learning-loop
		// counters are printed rather than declared as metrics.
		ob, oa := pr.onlineBefore, pr.onlineAfter
		fmt.Printf("online %s: ingested %.0f, processed %.0f, dropped %.0f, probes %.0f, retrains %.0f, promotions %.0f in the timed phase\n",
			pr.spec.name, oa.Ingested-ob.Ingested, oa.Processed-ob.Processed, oa.Dropped-ob.Dropped,
			oa.Probes-ob.Probes, oa.Retrains-ob.Retrains, oa.Promotions-ob.Promotions)
	}
	return out
}

// httpFloor measures a bare handler that answers a body of the same
// size as the service's, over the same client transport and loop.
func httpFloor(p *plan, base string, out map[string]float64) error {
	req := p.phases[0][0][0]
	resp, err := httpClient.Post(base+pathFor(p.spec), "application/json", bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	reply := bytes.Repeat([]byte{' '}, len(answer))
	hs, addr, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
		w.Write(reply)
	}))
	if err != nil {
		return err
	}
	defer hs.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	url := "http://" + addr + pathFor(p.spec)
	var mu sync.Mutex
	var rtts []float64
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := p.phases[0][c]
			for n := 0; n < 4000; n++ {
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(seq[n%len(seq)].body))
				if err != nil {
					errs[c] = err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if n >= 500 { // the first requests warm the connection
					mu.Lock()
					rtts = append(rtts, us(time.Since(start)))
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("http floor: %w", err)
		}
	}
	out["http.floor_us"] = median(rtts)
	return nil
}

func pathFor(s spec) string {
	if s.batch > 1 {
		return "/v1/predict/batch"
	}
	return "/v1/predict"
}

// traceOverhead compares Server.Handler().ServeHTTP with the default
// tracer against a server built with DisableTracing, in alternating
// blocks on the same warm requests.
func traceOverhead(ms *models, p *plan, out map[string]float64) error {
	on, err := newNode(ms, p.spec, "", false)
	if err != nil {
		return err
	}
	defer on.close()
	off, err := newNode(ms, p.spec, "", true)
	if err != nil {
		return err
	}
	defer off.close()
	seq := p.phases[0][0]
	call := func(h http.Handler, body []byte) (time.Duration, error) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, pathFor(p.spec), bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("trace overhead: status %d", w.Code)
		}
		return d, nil
	}
	hOn, hOff := on.srv.Handler(), off.srv.Handler()
	for _, r := range seq[:512] { // warm both caches
		if _, err := call(hOn, r.body); err != nil {
			return err
		}
		if _, err := call(hOff, r.body); err != nil {
			return err
		}
	}
	var tOn, tOff time.Duration
	for block := 0; block < 16; block++ {
		for _, h := range []http.Handler{hOn, hOff} {
			for _, r := range seq[block*256 : (block+1)*256] {
				d, err := call(h, r.body)
				if err != nil {
					return err
				}
				if h == hOn {
					tOn += d
				} else {
					tOff += d
				}
			}
		}
	}
	out["obs.trace_overhead_pct"] = (float64(tOn) - float64(tOff)) / float64(tOff) * 100
	return nil
}

// distinctFeatures resolves up to n distinct combos of the plan.
func distinctFeatures(p *plan, v *validator, n int) []feature.Vector {
	var out []feature.Vector
	seen := map[feature.BinaryKey]bool{}
	for i := range p.combos {
		if len(out) == n {
			break
		}
		e, err := v.expect(int32(i))
		if err != nil || seen[e.feat.Binary()] {
			continue
		}
		seen[e.feat.Binary()] = true
		out = append(out, e.feat)
	}
	return out
}

// perCall times reps passes of f over n items and returns microseconds
// per item.
func perCall(reps, n int, f func(i int)) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	return us(time.Since(start)) / float64(reps*n)
}

// kernels times the predictors and the machine model in-process.
func kernels(ms *models, p *plan, v *validator, out map[string]float64) {
	feats := distinctFeatures(p, v, 64)
	out["predict.tree_us"] = perCall(200, len(feats), func(i int) { ms.tree.Predict(feats[i]) })
	out["predict.nn_us"] = perCall(50, len(feats), func(i int) { ms.deep.Predict(feats[i]) })

	b := int(math.Round(out["serve.batch_items_mean"]))
	b = min(max(b, 1), 64)
	batch := make([]feature.Vector, b)
	for i := range batch {
		batch[i] = feats[i%len(feats)]
	}
	dst := make([]config.M, b)
	out["predict.nn_batch_us_per_item"] = perCall(200, 1, func(int) { ms.deep.PredictBatchChecked(batch, dst) }) / float64(b)

	o := newOracle()
	job := o.cell(feats[0]).job
	out["machine.evaluate_us"] = perCall(4, len(o.cands), func(i int) { o.cost(job, o.cands[i]) })
}

// onlineLayers drives a collector built with the CLI's -online options
// by hand with the workload's first combos: Observe and Tick are timed
// directly, and the WAL it wrote is appended again, batch by batch, to
// time Append plus Sync.
func onlineLayers(ms *models, p *plan, v *validator, dir string, out map[string]float64) error {
	mgr := online.New(onlineOptions(ms.pair, dir))
	defer mgr.Close()
	samples := make([]online.Sample, min(len(p.combos), 1024))
	for i := range samples {
		e, err := v.expect(int32(i))
		if err != nil {
			return err
		}
		samples[i] = online.Sample{Key: e.key, Features: e.feat, M: ms.deep.Predict(e.feat),
			Model: "deep", Predictor: ms.deep.Name()}
	}
	const batch = online.DefaultDrainBatch
	next := 0
	observe := func(i int) {
		mgr.Observe(samples[next%len(samples)])
		next++
	}
	out["online.observe_us"] = perCall(1, batch, observe)
	var ticks []float64
	for r := 0; r < 8; r++ {
		if r > 0 {
			perCall(1, batch, observe)
		}
		start := time.Now()
		mgr.Tick()
		ticks = append(ticks, float64(time.Since(start))/1e6)
	}
	out["online.tick_ms"] = median(ticks)

	var payloads [][]byte
	if _, err := durable.ReplayWAL(filepath.Join(dir, "online", "wal"), 0, func(_ uint64, b []byte) error {
		payloads = append(payloads, append([]byte(nil), b...))
		return nil
	}); err != nil {
		return err
	}
	if len(payloads) < batch {
		return fmt.Errorf("online collector journaled %d outcomes, want at least %d", len(payloads), batch)
	}
	walDir := filepath.Join(dir, "wal-copy")
	w, err := durable.OpenWAL(durable.WALOptions{Dir: walDir})
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	defer w.Close()
	var appends []float64
	for r := 0; r+batch <= len(payloads); r += batch {
		start := time.Now()
		for _, pl := range payloads[r : r+batch] {
			if _, err := w.Append(pl); err != nil {
				return err
			}
		}
		if err := w.Sync(); err != nil {
			return err
		}
		appends = append(appends, us(time.Since(start)))
	}
	out["durable.wal_append_us"] = median(appends)
	return nil
}
