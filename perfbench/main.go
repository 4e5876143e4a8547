// Command perfbench is the repository's end-to-end benchmark. It starts
// real `heteromap serve` node and router processes on loopback, drives
// them with a closed loop of pre-encoded requests, checks every answer
// and prints one JSON result line. With -trace 1 it also replays the
// workload into in-process instances with spans around each layer's
// public functions and prints the per-layer ledger instead.
//
// Run it through run.sh, which builds both binaries from the tree:
//
//	bash perfbench/run.sh --workload hot-direct --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	workload := flag.String("workload", "hot-direct", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 8, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	bin := flag.String("heteromap", "", "heteromap binary under test")
	work := flag.String("work", "", "directory for process state and logs")
	echo := flag.String("echo", "", "serve the host-speed reference echo on this address")
	flag.Parse()
	if *echo != "" {
		fmt.Fprintln(os.Stderr, "perfbench:", serveEcho(*echo))
		os.Exit(1)
	}

	s, err := specByName(*workload)
	if err == nil && (*bin == "" || *work == "") {
		err = fmt.Errorf("-heteromap and -work are required")
	}
	if err == nil && *seconds < 2 {
		err = fmt.Errorf("-seconds must be at least 2")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	go stopOnSignal(dir)
	res, err := bench(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, dir)
	stopAll()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// stopper is a started set of processes.
type stopper interface{ stop() }

// live holds the processes that must be torn down on every exit path.
var live struct {
	sync.Mutex
	deps map[stopper]bool
}

func track(d stopper) {
	live.Lock()
	defer live.Unlock()
	if live.deps == nil {
		live.deps = map[stopper]bool{}
	}
	live.deps[d] = true
}

func untrack(d stopper) {
	live.Lock()
	defer live.Unlock()
	delete(live.deps, d)
}

func stopAll() {
	live.Lock()
	deps := live.deps
	live.deps = nil
	live.Unlock()
	for d := range deps {
		d.stop()
	}
}

// stopOnSignal tears everything down when the benchmark is interrupted.
func stopOnSignal(dir string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	stopAll()
	os.RemoveAll(dir)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run sets the deployment up; setup_s is the
// median.
const setups = 3

// warmup precedes the timed phase: caches fill, connections open.
const warmup = time.Second

// processRun is everything measured on the real processes.
type processRun struct {
	spec     spec
	timed    time.Duration
	setup    []time.Duration
	stats    []*connStats
	wins     []phaseWindow
	rssKiB   uint64
	slowdown float64

	nodesBefore, nodesAfter   []scrape
	routerBefore, routerAfter scrape
	onlineBefore, onlineAfter onlineSnap
	federate                  []time.Duration // /metrics/cluster round trips
	metricsScrape             []time.Duration // /metrics round trips after the run
}

// phaseWindow is one window of the timed phase as the benchmark saw it:
// its length less the reference slices, the system under test's CPU
// ticks and the reference samples.
type phaseWindow struct {
	length, paused time.Duration
	ticks          uint64
	trips, passes  []time.Duration
}

// windowLen is the target length of a timed-phase window.
const windowLen = 5 * time.Second

type onlineSnap struct {
	Ingested   float64 `json:"ingested"`
	Dropped    float64 `json:"dropped"`
	Processed  float64 `json:"processed"`
	Probes     float64 `json:"probes"`
	Retrains   float64 `json:"retrains"`
	Promotions float64 `json:"promotions"`
}

func bench(s spec, seed int64, timed time.Duration, traced bool, bin, dir string) (*result, error) {
	p := newPlan(s, seed)
	v := newValidator(p)
	pr, err := runProcesses(p, v, timed, traced, bin, dir)
	if err != nil {
		return nil, err
	}
	if err := guard(pr); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, st := range pr.stats {
		res.Attempted += st.attempted
		res.Failed += st.failed
		if st.err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "failure:", st.err)
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request completed in the timed phase")
	}
	e2e, reported := pr.endToEnd(res)
	if !traced {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{reported[m.name], m.unit}
		}
		return res, nil
	}
	layers, replay, err := tracedRun(p, v, pr, e2e, filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	for _, st := range replay {
		if st.err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "traced replay failure:", st.err)
		}
	}
	for _, m := range layerMetrics {
		val, ok := layers[m.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			val = 0
		}
		res.Metrics[m.name] = metric{val, m.unit}
	}
	return res, nil
}

// runProcesses sets the deployment up, drives it and collects what the
// processes report.
func runProcesses(p *plan, v *validator, timed time.Duration, traced bool, bin, dir string) (*processRun, error) {
	pr := &processRun{spec: p.spec, timed: timed}
	// While it drives the processes the generator collects garbage
	// rarely, so its own pauses stay out of the round trips it times.
	// The system under test, and the traced replay after this, keep the
	// default.
	defer debug.SetGCPercent(debug.SetGCPercent(1000))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	ref, err := startReference(filepath.Join(dir, "reference"))
	if err != nil {
		return nil, err
	}
	track(ref)
	defer func() {
		untrack(ref)
		ref.stop()
	}()
	n := setups
	if traced {
		n = 1
	}
	var d *deployment
	for i := 0; i < n; i++ {
		dep, dur, err := deploy(p.spec, bin, filepath.Join(dir, fmt.Sprintf("deploy%d", i)))
		if err != nil {
			return nil, err
		}
		track(dep)
		pr.setup = append(pr.setup, dur)
		if i < n-1 {
			untrack(dep)
			dep.stop()
			continue
		}
		d = dep
	}
	defer func() {
		untrack(d)
		d.stop()
	}()

	g := newGenerator(p, v, d.url())
	var pt phaseTimes
	statsCh := make(chan []*connStats, 1)
	go func() { statsCh <- g.run(&pt) }()
	stopFed := make(chan struct{})
	fedDone := make(chan []time.Duration, 1)
	go func() { fedDone <- federationScraper(d, &pt, stopFed) }()

	// abort stops the load and returns err.
	abort := func(err error) (*processRun, error) {
		pt.stopAt.Store(time.Now().UnixNano())
		<-statsCh
		return nil, err
	}
	time.Sleep(warmup)
	pt.gate.Lock()
	_, _, err = ref.slice()
	pt.gate.Unlock()
	if err != nil {
		return abort(err)
	}
	nWin := max(int(timed/windowLen), 1)
	pt.window, pt.windows = timed/time.Duration(nWin), nWin
	t0 := time.Now()
	pids := d.pids()
	ticks, err := sumTicks(pids)
	if err != nil {
		return abort(err)
	}
	if err := pr.scrapeAll(d, false); err != nil {
		return abort(err)
	}
	pt.timedAt.Store(t0.UnixNano())
	if len(p.phases) > 1 {
		pt.shiftAt.Store(t0.Add(timed / 2).UnixNano())
	}
	pr.wins = make([]phaseWindow, nWin)
	for w := range pr.wins {
		pw := &pr.wins[w]
		start := t0.Add(time.Duration(w) * pt.window)
		end := start.Add(pt.window)
		for next := start.Add(refInterval); next.Before(end); next = next.Add(refInterval) {
			time.Sleep(time.Until(next))
			pt.gate.Lock()
			began := time.Now()
			trips, passes, err := ref.slice()
			pw.paused += time.Since(began)
			pt.gate.Unlock()
			if err != nil {
				return abort(err)
			}
			pw.trips = append(pw.trips, trips...)
			pw.passes = append(pw.passes, passes...)
		}
		time.Sleep(time.Until(end))
		now, err := sumTicks(pids)
		if err != nil {
			return abort(err)
		}
		pw.length = time.Since(start) - pw.paused
		pw.ticks, ticks = now-ticks, now
	}
	pt.stopAt.Store(time.Now().UnixNano())
	pr.stats = <-statsCh
	close(stopFed)
	pr.federate = <-fedDone
	if err := pr.scrapeAll(d, true); err != nil {
		return nil, err
	}
	for _, pid := range pids {
		kib, err := peakRSS(pid)
		if err != nil {
			return nil, err
		}
		pr.rssKiB += kib
	}
	sample := &connStats{}
	if pr.slowdown, err = decisionSlowdown(d.url(), p, v, newOracle(), sample); err != nil {
		return nil, err
	}
	pr.stats = append(pr.stats, sample)
	if traced {
		for i := 0; i < 10; i++ {
			_, rtt, err := getScrape("http://" + d.nodes[0] + "/metrics")
			if err != nil {
				return nil, err
			}
			pr.metricsScrape = append(pr.metricsScrape, rtt)
		}
	}
	return pr, nil
}

func sumTicks(pids []int) (uint64, error) {
	var t uint64
	for _, pid := range pids {
		n, err := cpuTicks(pid)
		if err != nil {
			return 0, err
		}
		t += n
	}
	return t, nil
}

// federationScraper reads /metrics/cluster once a second, as an
// operator's Prometheus would, and returns the timed-phase round trips.
func federationScraper(d *deployment, pt *phaseTimes, stop <-chan struct{}) []time.Duration {
	if d.router == "" {
		return nil
	}
	var rtts []time.Duration
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return rtts
		case <-tick.C:
		}
		pt.gate.RLock()
		_, rtt, err := getScrape("http://" + d.router + "/metrics/cluster")
		pt.gate.RUnlock()
		if err != nil {
			fmt.Fprintln(os.Stderr, "federation scrape:", err)
			continue
		}
		if t0 := pt.timedAt.Load(); t0 != 0 && pt.stopAt.Load() == 0 {
			rtts = append(rtts, rtt)
		}
	}
}

// scrapeAll records node, router and online counters before or after
// the timed phase.
func (pr *processRun) scrapeAll(d *deployment, after bool) error {
	var nodes []scrape
	for _, n := range d.nodes {
		s, _, err := getScrape("http://" + n + "/metrics")
		if err != nil {
			return err
		}
		nodes = append(nodes, s)
	}
	var router scrape
	if d.router != "" {
		var err error
		if router, _, err = getScrape("http://" + d.router + "/metrics"); err != nil {
			return err
		}
	}
	var on onlineSnap
	if d.spec.online {
		if err := getJSON("http://"+d.nodes[0]+"/v1/online", &on); err != nil {
			return err
		}
	}
	if after {
		pr.nodesAfter, pr.routerAfter, pr.onlineAfter = nodes, router, on
	} else {
		pr.nodesBefore, pr.routerBefore, pr.onlineBefore = nodes, router, on
	}
	return nil
}

// guard fails the run when the workload lost the property it was chosen
// for.
func guard(pr *processRun) error {
	hit := pr.hitRatio()
	switch pr.spec.name {
	case "hot-direct":
		if !(hit >= 0.99) {
			return fmt.Errorf("guard: hot-direct cache hit ratio %.4f < 0.99", hit)
		}
	case "cold-batch":
		if !(hit <= 0.10) {
			return fmt.Errorf("guard: cold-batch cache hit ratio %.4f > 0.10", hit)
		}
	case "hot-routed":
		for i := range pr.nodesAfter {
			if delta(pr.nodesBefore[i], pr.nodesAfter[i], "heteromap_requests_total") <= 0 {
				return fmt.Errorf("guard: hot-routed node %d received no forwards", i)
			}
		}
	case "online-drift":
		if pr.onlineAfter.Processed-pr.onlineBefore.Processed <= 0 {
			return fmt.Errorf("guard: online-drift collector processed nothing")
		}
		if delta(pr.nodesBefore[0], pr.nodesAfter[0], "heteromap_durable_wal_last_seq") <= 0 {
			return fmt.Errorf("guard: online-drift appended nothing to the WAL")
		}
	}
	return nil
}

func (pr *processRun) hitRatio() float64 {
	h := sumDelta(pr.nodesBefore, pr.nodesAfter, "heteromap_cache_hits_total")
	m := sumDelta(pr.nodesBefore, pr.nodesAfter, "heteromap_cache_misses_total")
	return h / (h + m)
}

type metricDef struct{ name, unit string }

// e2eMetrics and layerMetrics list what BENCHMARK.json declares, in its
// order; a test keeps the two in step.
var e2eMetrics = []metricDef{
	{"throughput_pps", "pred/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_pred", "us"},
	{"success_ratio", "ratio"},
	{"decision_slowdown", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
}

// endToEnd computes the end-to-end metrics of the process run. raw has
// the timings as measured over the whole timed phase: every timed
// request's latency, every correct prediction and all the CPU the
// system under test used. reported restates each window's timings at the
// nominal speed of the host-speed reference and takes the median over
// the windows.
//
// The speed of a shared host drifts by a third from one minute to the
// next, and for seconds at a time it can drop further. A window's
// reference slices saw the same host as its requests, so scaling by them
// leaves the figures moving with the program rather than with the host;
// the program cannot move the reference, which runs none of its code.
// The median then keeps a few windows that the host slowed beyond that
// from setting the run's figure.
func (pr *processRun) endToEnd(res *result) (raw, reported map[string]float64) {
	var lat []time.Duration
	preds, paused, ticks := 0, time.Duration(0), uint64(0)
	var length time.Duration
	for _, st := range pr.stats {
		lat = append(lat, st.lat...)
		preds += st.preds
	}
	var trips, passes []time.Duration
	for _, pw := range pr.wins {
		length += pw.length
		paused += pw.paused
		ticks += pw.ticks
		trips = append(trips, pw.trips...)
		passes = append(passes, pw.passes...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	raw = map[string]float64{
		"throughput_pps":    float64(preds) / length.Seconds(),
		"latency_p50_us":    us(quantile(lat, 0.50)),
		"latency_p99_us":    us(quantile(lat, 0.99)),
		"cpu_us_per_pred":   float64(ticks) / clockTicks * 1e6 / float64(preds),
		"success_ratio":     float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"decision_slowdown": pr.slowdown,
		"setup_s":           median(seconds(pr.setup)),
		"rss_peak_mb":       float64(pr.rssKiB) / 1024,
	}
	name := pr.spec.name
	fmt.Fprintf(os.Stderr, "%s: set-ups took %v\n", name, pr.setup)
	if len(pr.nodesAfter) > 1 {
		total := sumDelta(pr.nodesBefore, pr.nodesAfter, "heteromap_requests_total")
		var shares []float64
		for i := range pr.nodesAfter {
			shares = append(shares, delta(pr.nodesBefore[i], pr.nodesAfter[i], "heteromap_requests_total")/total)
		}
		fmt.Fprintf(os.Stderr, "%s: share of node requests %.3f\n", name, shares)
	}
	k, tripUS, passUS := refScale(trips, passes)
	fmt.Fprintf(os.Stderr, "%s: %d timed requests (latency samples) in %.2fs less %.2fs of reference slices, %d correct predictions, %d failed requests\n",
		name, len(lat), (length + paused).Seconds(), paused.Seconds(), preds, res.Failed)
	fmt.Fprintf(os.Stderr, "%s: as measured: %.1f pred/s, %.2f us CPU per prediction, latency p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f us; reference round trip %.2f us, pass %.2f us (scale %.4f)\n",
		name, raw["throughput_pps"], raw["cpu_us_per_pred"], us(quantile(lat, 0.5)), us(quantile(lat, 0.9)),
		us(quantile(lat, 0.99)), us(quantile(lat, 0.999)), tripUS, passUS, k)

	timings := []string{"throughput_pps", "latency_p50_us", "latency_p99_us", "cpu_us_per_pred"}
	perWin := map[string][]float64{}
	for w, pw := range pr.wins {
		var wl []time.Duration
		wp := 0
		for _, st := range pr.stats {
			if w < len(st.wins) {
				wl = append(wl, st.wins[w].lat...)
				wp += st.wins[w].preds
			}
		}
		sort.Slice(wl, func(i, j int) bool { return wl[i] < wl[j] })
		k, _, _ := refScale(pw.trips, pw.passes)
		vals := []float64{
			float64(wp) / pw.length.Seconds() / k,
			us(quantile(wl, 0.50)) * k,
			us(quantile(wl, 0.99)) * k,
			float64(pw.ticks) / clockTicks * 1e6 / float64(max(wp, 1)) * k,
		}
		for i, n := range timings {
			perWin[n] = append(perWin[n], vals[i])
		}
		rt := append([]time.Duration(nil), pw.trips...)
		sort.Slice(rt, func(i, j int) bool { return rt[i] < rt[j] })
		fmt.Fprintf(os.Stderr, "%s: window %d at reference speed: %.1f pred/s, p50 %.1f us, p99 %.1f us (%d samples), %.2f us CPU per prediction; scale %.4f; reference trip p50 %.1f p90 %.1f p99 %.1f us\n",
			name, w, vals[0], vals[1], vals[2], len(wl), vals[3], k, us(quantile(rt, 0.5)), us(quantile(rt, 0.9)), us(quantile(rt, 0.99)))
	}
	reported = maps.Clone(raw)
	for _, n := range timings {
		reported[n] = median(perWin[n])
	}
	return raw, reported
}

// quantile is the nearest-rank quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
