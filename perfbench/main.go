// Command perfbench is the repository's benchmark. It builds a store,
// boots the real uei-serve, drives one named workload over the HTTP/JSON
// API for a timed window, checks the outputs and prints every metric by
// name with its unit. With -trace 1 it also replays the workload's digest
// sessions in process, timing calls into each layer's public functions,
// and prints the per-layer metrics instead. Run it through run.sh, which
// builds both binaries first; README.md documents workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/server"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 7

// maxStealPct is the hypervisor steal share above which a run is not a
// valid measurement of the program: on a 2-vCPU host, 10% steal cost
// explore-long about a quarter of its throughput and doubled tail
// latencies.
const maxStealPct = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	serve    string
	work     string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (explore-long, explore-short, ingest-mixed)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: session plan and appended rows")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from the traced in-process run")
	flag.StringVar(&o.root, "root", ".", "repository checkout being measured")
	flag.StringVar(&o.serve, "serve", "", "uei-serve binary built from the checkout")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for stores, logs and spans")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates metrics, report lines and failed checks.
type result struct {
	metrics map[string]metric
	lines   []string
	// invalid lists failed output checks (the result is not correct);
	// thin lists what makes the run invalid as a measurement: percentiles
	// with too few samples beyond them, a generator that fell behind.
	invalid []string
	thin    []string
}

func (r *result) add(name string, v float64, unit, evidence string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.lines = append(r.lines, fmt.Sprintf("metric %s=%.6g %s %s", name, v, unit, evidence))
}

// addPct reports an end-to-end percentile with its sample count. The run
// is judged on these, so one with too few samples beyond it makes the run
// invalid.
func (r *result) addPct(name string, s stat, unit string) {
	r.add(name, s.Value, unit, fmt.Sprintf("(n=%d beyond=%d)", s.N, s.Beyond))
	if !s.valid() {
		r.thin = append(r.thin, fmt.Sprintf("%s has %d of %d samples beyond it, needs %d", name, s.Beyond, s.N, minBeyond))
	}
}

// addLayerPct reports a per-layer percentile. These come from a replay of
// the 20 digest sessions, so their tails are often short; a short one is
// marked in the report and leaves the run's validity alone.
func (r *result) addLayerPct(name string, s stat, unit string) {
	r.add(name, s.Value, unit, fmt.Sprintf("(n=%d beyond=%d)", s.N, s.Beyond))
	if !s.valid() {
		r.note("short: %s has %d of %d samples beyond it; widen the replay before a claim rests on it", name, s.Beyond, s.N)
	}
}

// printPct prints a percentile that is not among the benchmark's metrics.
func (r *result) printPct(name string, s stat, unit string) {
	r.note("report %s=%.6g %s (n=%d beyond=%d)", name, s.Value, unit, s.N, s.Beyond)
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.lines = append(r.lines, "check ok: "+msg)
		return
	}
	r.lines = append(r.lines, "check FAILED: "+msg)
	r.invalid = append(r.invalid, msg)
}

func run(o options) error {
	w, err := workloadNamed(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	if o.serve == "" {
		return errors.New("-serve (the uei-serve binary) is required; run through run.sh")
	}
	if o.root, err = filepath.Abs(o.root); err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(o.work, w.name))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}

	// A signal stops the run; deferred server stops still run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res := &result{metrics: make(map[string]metric)}
	h := fingerprint(o.root)
	res.note("host cpu=%q vcpus=%d gomaxprocs=%d go=%s kernel=%s commit=%s",
		h.CPU, h.VCPUs, h.GOMAXPROCS, h.Go, h.Kernel, h.Commit)
	res.note("workload=%s seed=%d seconds=%d trace=%v rows=%d", w.name, o.seed, o.seconds, o.trace, w.rows)
	w, cut := w.capped(h.VCPUs)
	if cut {
		res.note("client goroutines capped at nproc=%d: %d explorers", h.VCPUs, max(w.clients, w.openSlots))
	}

	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: w.rows, Seed: dataSeed})
	if err != nil {
		return err
	}
	targets, err := makeTargets(ds, w.selectivities, dataSeed)
	if err != nil {
		return err
	}

	srv, storeDir, setupS, err := setUp(ctx, o, &w, work, ds, targets)
	if err != nil {
		return err
	}
	defer srv.stop()
	res.note("block cache %d bytes (%.2f of the decoded store), memory budget %d bytes", w.cacheBytes, w.cacheShare, w.budget)

	c := newClient(srv.base)
	hr := newHTTPRun(w, c, ds, targets, o.seed)
	// An unreadable /proc/<pid>/io only leaves stream.write_amp at 0.
	wb0, _ := srv.writeBytes()
	ctr0, err := srv.counters()
	if err != nil {
		return err
	}
	steal0, total0 := cpuTicks()
	hr.run(time.Duration(o.seconds) * time.Second)
	steal1, total1 := cpuTicks()
	if err := ctx.Err(); err != nil {
		return err
	}
	wb1, _ := srv.writeBytes()
	ctr1, err := srv.counters()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSBytes()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}

	digestRecs, derr := hr.digestRecords()
	digest := ""
	if derr == nil {
		digest = workflowDigest(digestRecs)
	}
	res.check(derr == nil, "digest prefix of %d sessions completed", w.digestSessions)
	res.check(len(hr.errs) == 0, "no request failed (%d failed, %d refused; first errors %v)",
		c.failed.Load(), c.refused.Load(), hr.errs)

	window := float64(o.seconds)
	attempted := c.attempted.Load()
	failed := c.failed.Load() + c.refused.Load()
	if w.appendEvery > 0 {
		initial := w.rows
		res.check(hr.idsOK, "appended id ranges are contiguous")
		res.check(hr.lastTotal == initial+hr.appended,
			"server row count %d = initial %d + acknowledged %d", hr.lastTotal, initial, hr.appended)
		res.check(int(ctr1["stream_append_rows_total"]-ctr0["stream_append_rows_total"]) == hr.appended,
			"server counted %d appended rows, client saw %d acknowledged",
			int(ctr1["stream_append_rows_total"]-ctr0["stream_append_rows_total"]), hr.appended)
	}
	steal := 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	res.note("steps per 5 s slice: %v; host steal %.1f%% of CPU time during the window", hr.sliceSteps, steal)
	if steal > maxStealPct {
		res.thin = append(res.thin, fmt.Sprintf("host steal %.1f%% exceeds %d%%: the timings measure the host as much as the program", steal, maxStealPct))
	}
	res.note("digest=%s sessions_completed=%d steps=%d window_s=%g", digest, len(hr.records), len(hr.stepLat), window)
	if hr.explorers != nil {
		reportPacer(res, "explorer", hr.explorers, w.openSlots)
	}
	if hr.appender != nil {
		reportPacer(res, "appender", hr.appender, 1)
	}

	if !o.trace {
		store, err := replayStore(work, storeDir, w, ds)
		if err != nil {
			return err
		}
		replayed, err := replayDigest(ctx, store, w, ds, targets, o.seed)
		if err != nil {
			return err
		}
		checkReplay(res, digestRecs, replayed, targets, "in-process replay")
		res.addPct("step_p50_ms", hr.step.pct(0.50), "ms")
		res.addPct("step_p99_ms", hr.step.pct(0.99), "ms")
		res.addPct("final_p50_ms", hr.final.pct(0.50), "ms")
		res.addPct("session_p50_ms", hr.session.pct(0.50), "ms")
		res.addPct("session_p90_ms", hr.session.pct(0.90), "ms")
		res.addPct("create_p50_ms", hr.create.pct(0.50), "ms")
		res.add("steps_per_s", float64(hr.stepsInWindow)/window, "1/s", fmt.Sprintf("(steps=%d)", hr.stepsInWindow))
		res.add("goodput_steps_per_s", float64(hr.goodInWindow)/window, "1/s",
			fmt.Sprintf("(steps_within_%dms=%d)", budgetMs, hr.goodInWindow))
		res.add("ok_share", 1-float64(failed)/float64(attempted), "ratio",
			fmt.Sprintf("(failed_or_refused=%d attempted=%d)", failed, attempted))
		res.add("result_f1", meanOf(hr.f1s), "ratio", fmt.Sprintf("(sessions=%d)", len(hr.f1s)))
		res.add("setup_s", setupS, "s", fmt.Sprintf("(median of %d set-ups)", setupReps))
		res.add("peak_rss_mb", float64(rss)/mib, "MiB", "(server VmHWM)")
		if w.appendEvery > 0 {
			// Static layouts take no appends, so these are printed in the
			// report but are not among the workload-wide metrics.
			res.printPct("append_p50_ms", hr.appendLat.pct(0.50), "ms")
			res.printPct("append_p99_ms", hr.appendLat.pct(0.99), "ms")
		}
	} else {
		sf := streamFigures{
			flushes:  ctr1["stream_flush_total"] - ctr0["stream_flush_total"],
			compacts: ctr1["stream_compact_total"] - ctr0["stream_compact_total"],
			source:   "server counters and the in-process appender",
		}
		if w.live {
			size, err := dirBytes(storeDir)
			if err != nil {
				return err
			}
			sf.spaceAmp = float64(size) / userBytes(w.rows+hr.appended, ds.Dims())
			sf.writeAmp = float64(wb1-wb0) / userBytes(hr.appended, ds.Dims())
		}
		if err := traceLayers(ctx, res, o, w, work, storeDir, ds, targets, hr, digestRecs, sf); err != nil {
			return err
		}
	}

	for _, t := range res.thin {
		res.note("validity: %s", t)
	}
	res.note("correct=%v valid=%v", len(res.invalid) == 0, len(res.thin) == 0)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.invalid) == 0, attempted, failed, res.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func meanOf(v []float64) float64 {
	d := dist{vals: v}
	return d.mean()
}

// reportPacer prints a generator's lag and queueing and marks the run
// invalid when the generator fell behind its schedule.
func reportPacer(res *result, name string, p *pacer, slots int) {
	lag, q := p.lag.pct(0.99), p.queue.pct(0.99)
	res.note("%s generator arrivals=%d lag_p99_ms=%.3f lag_max_ms=%.3f queue_p50_ms=%.3f queue_p99_ms=%.3f missed=%d",
		name, p.lag.n(), lag.Value, p.lag.pct(1).Value, p.queue.pct(0.5).Value, q.Value, p.missed)
	if p.behind(slots) {
		res.thin = append(res.thin, fmt.Sprintf("%s generator fell behind: %d due arrivals unstarted at the close, %d slots", name, p.missed, slots))
	}
}

// setUp builds the store, boots uei-serve and runs a warm-up session,
// setupReps times from scratch, and keeps the last server running. It
// returns the median set-up time in seconds. After the first build it sets
// w.cacheBytes from the built store's decoded size; that step is the
// benchmark's own and is not timed.
func setUp(ctx context.Context, o options, w *workload, work string, ds *dataset.Dataset, targets []target) (*serverProc, string, float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := ctx.Err(); err != nil {
			return nil, "", 0, err
		}
		dir := filepath.Join(work, fmt.Sprintf("run%d", rep))
		storeDir := filepath.Join(dir, "store")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", 0, err
		}
		t0 := time.Now()
		if err := core.Build(storeDir, ds, core.BuildOptions{
			TargetChunkBytes: 64 << 10, Shards: w.shards, LiveIngest: w.live,
		}); err != nil {
			return nil, "", 0, fmt.Errorf("build store: %w", err)
		}
		built := time.Since(t0)
		if rep == 0 {
			decoded, err := decodedBytes(ctx, storeDir)
			if err != nil {
				return nil, "", 0, fmt.Errorf("size the block cache: %w", err)
			}
			w.cacheBytes = int64(w.cacheShare * float64(decoded))
		}
		t0 = time.Now().Add(-built)
		srv, err := startServer(o.serve, storeDir, filepath.Join(dir, "server.log"), *w, o.seed)
		if err != nil {
			return nil, "", 0, err
		}
		if err := srv.waitReady(60 * time.Second); err != nil {
			srv.stop()
			return nil, "", 0, err
		}
		if err := warmUp(newClient(srv.base), *w, targets); err != nil {
			srv.stop()
			return nil, "", 0, fmt.Errorf("warm-up session: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			return srv, storeDir, median(times), nil
		}
		if err := srv.stop(); err != nil {
			return nil, "", 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, "", 0, err
		}
	}
	panic("unreachable")
}

// warmUp runs one short session to completion; the server's first oracle
// session also reconstructs the dataset for ground truth.
func warmUp(c *client, w workload, targets []target) error {
	tg := targets[0]
	info, err := c.create(server.SessionSpec{
		Name: "perfbench-warmup", MaxLabels: 4, Seed: -1, SampleSize: w.sampleSize,
		Oracle: &server.OracleSpec{Center: tg.region.Center, Widths: tg.region.Widths},
	})
	if err != nil {
		return err
	}
	for {
		resp, err := c.step(info.ID)
		if err != nil {
			return err
		}
		if resp.Done {
			break
		}
	}
	if _, err := c.result(info.ID); err != nil {
		return err
	}
	return c.remove(info.ID)
}

// checkReplay checks that an in-process replay of the digest sessions
// reproduced the HTTP run: the same workflow digest, and for each session
// the same F1 of its result against the benchmark's ground truth.
func checkReplay(res *result, httpRecs, replayed []sessionRecord, targets []target, what string) {
	if httpRecs == nil {
		return // the missing digest prefix already failed a check
	}
	got, want := workflowDigest(replayed), workflowDigest(httpRecs)
	res.check(got == want, "%s reproduces the HTTP workflow digest (%s vs %s)", what, got, want)
	var sum float64
	same := len(replayed) == len(httpRecs)
	for i, rec := range httpRecs {
		truth := targets[rec.Region].truth
		h := f1(rec.Result, truth)
		sum += h
		same = same && h == f1(replayed[i].Result, truth)
	}
	res.check(same, "%s gives every digest session the HTTP run's result F1", what)
	res.check(sum > 0, "digest sessions retrieve some of their regions (mean F1 %.4f)", sum/float64(len(httpRecs)))
}

// replayStore is the store an in-process replay opens. A live store was
// changed by the HTTP run's appends, so the replay gets a fresh build of
// the same initial data instead.
func replayStore(work, storeDir string, w workload, ds *dataset.Dataset) (string, error) {
	if !w.live {
		return storeDir, nil
	}
	dir := filepath.Join(work, "replay")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	store := filepath.Join(dir, "store")
	return store, core.Build(store, ds, core.BuildOptions{
		TargetChunkBytes: 64 << 10, Shards: w.shards, LiveIngest: true,
	})
}

// shareSpans partition a traced step: the provider calls, the engine's
// own selection and refit, and result retrieval.
var shareSpans = []string{"core.prepare", "core.score", "core.ensure_region", "ide.select_self", "ide.resolve", "core.retrieve"}

// reportShares prints each layer span's share of the traced step time, so
// a workload's stated character can be read off the report.
func reportShares(res *result, sp *spans) {
	var total float64
	for _, s := range sp.list {
		if s.Name == "step" {
			total += ms(time.Duration(s.End - s.Start))
		}
	}
	line := fmt.Sprintf("traced step time %.1f ms; shares:", total)
	for _, name := range shareSpans {
		line += fmt.Sprintf(" %s=%.3f", name, sp.dist(name).sum()/total)
	}
	res.note("%s", line)
}

// traceLayers runs the traced in-process replay and reports every
// per-layer metric.
func traceLayers(ctx context.Context, res *result, o options, w workload, work, storeDir string,
	ds *dataset.Dataset, targets []target, hr *httpRun, httpRecs []sessionRecord, sf streamFigures) error {
	traceStore, err := replayStore(work, storeDir, w, ds)
	if err != nil {
		return err
	}
	tr, err := runTraced(ctx, traceStore, w, ds, targets, o.seed)
	if err != nil {
		return err
	}
	spanPath := filepath.Join(work, "spans.jsonl")
	if err := tr.sp.write(spanPath); err != nil {
		return err
	}
	res.note("traced run: %d sessions, %d spans written to %s", len(tr.sessions), len(tr.sp.list), spanPath)
	checkReplay(res, httpRecs, tr.recs, targets, "traced run")
	reportShares(res, tr.sp)

	var steps int
	var entries, swaps int
	var chunks, bytes, peak int64
	var overhead, httpPaired, inproc dist
	for i, s := range tr.sessions {
		steps += len(s.steps)
		entries += s.delta.EntriesVisited
		swaps += s.delta.RegionSwaps
		chunks += s.delta.ChunksRead
		bytes += s.delta.BytesRead
		peak = max(peak, s.peak)
		for k, d := range tr.engine[i] {
			if lat, ok := hr.stepLat[stepKey{i, k}]; ok {
				overhead.add(lat - ms(d))
				httpPaired.add(lat)
				inproc.add(ms(d))
			}
		}
	}
	res.note("paired steps: http p50 %.3f ms, in-process p50 %.3f ms", httpPaired.pct(0.5).Value, inproc.pct(0.5).Value)
	nSess := float64(len(tr.sessions))
	sp := tr.sp
	res.addLayerPct("core.retrieve_ms.p50", sp.dist("core.retrieve").pct(0.5), "ms")
	res.addLayerPct("ide.finish_ms.p50", sp.dist("ide.finish").pct(0.5), "ms")
	res.add("core.entries_visited.per_session", float64(entries)/nSess, "count", fmt.Sprintf("(sessions=%d)", len(tr.sessions)))
	res.addLayerPct("core.score_ms.p50", sp.dist("core.score").pct(0.5), "ms")
	res.add("core.score.count", float64(sp.dist("core.score").n()), "count", fmt.Sprintf("(UpdateUncertainty calls over %d sessions)", len(tr.sessions)))
	res.addLayerPct("core.ensure_region_ms.p50", sp.dist("core.ensure_region").pct(0.5), "ms")
	res.addLayerPct("core.ensure_region_ms.p99", sp.dist("core.ensure_region").pct(0.99), "ms")
	res.add("core.region_swaps.per_session", float64(swaps)/nSess, "count", fmt.Sprintf("(sessions=%d)", len(tr.sessions)))
	res.addLayerPct("core.prepare_ms.p50", sp.dist("core.prepare").pct(0.5), "ms")
	res.add("core.peak_budget_bytes", float64(peak), "bytes", "(max over sessions)")
	res.addLayerPct("ide.propose_ms.p50", sp.dist("ide.propose").pct(0.5), "ms")
	res.addLayerPct("ide.propose_ms.p99", sp.dist("ide.propose").pct(0.99), "ms")
	res.addLayerPct("ide.select_self_ms.p50", sp.dist("ide.select_self").pct(0.5), "ms")
	res.addLayerPct("ide.resolve_ms.p50", sp.dist("ide.resolve").pct(0.5), "ms")
	res.add("chunkstore.chunks_read.per_step", float64(chunks)/float64(steps), "count", fmt.Sprintf("(steps=%d)", steps))
	res.add("chunkstore.bytes_read.per_step", float64(bytes)/float64(steps), "bytes", fmt.Sprintf("(steps=%d)", steps))
	dec, err := chunkDecode(ctx, traceStore)
	if err != nil {
		return err
	}
	res.addLayerPct("chunkstore.read_decode_us.p50", dec.pct(0.5), "us")
	base := tr.hits + tr.misses
	res.add("blockcache.hit_ratio", float64(tr.hits)/float64(base), "ratio", fmt.Sprintf("(hits=%d base=%d)", tr.hits, base))

	if w.live {
		sf.appends = &tr.appends
	} else {
		if sf, err = streamProbe(ctx, filepath.Join(work, "probe"), w, ds, o.seed); err != nil {
			return fmt.Errorf("stream probe: %w", err)
		}
	}
	res.note("stream figures from the %s", sf.source)
	res.addLayerPct("stream.append_ms.p50", sf.appends.pct(0.5), "ms")
	res.addLayerPct("stream.append_ms.p99", sf.appends.pct(0.99), "ms")
	res.add("stream.flushes", sf.flushes, "count", "")
	res.add("stream.compactions", sf.compacts, "count", "")
	res.add("stream.space_amp", sf.spaceAmp, "ratio", "(bytes on disk per live user byte)")
	res.add("stream.write_amp", sf.writeAmp, "ratio", "(storage bytes written per appended user byte)")

	ov := overhead.pct(0.5)
	res.addLayerPct("server.overhead_ms.p50", ov, "ms")
	if ov.N == 0 || ov.Value < 0 {
		res.thin = append(res.thin, fmt.Sprintf("server.overhead_ms.p50 is %.3f ms over %d paired steps; host noise between the HTTP window and the replay exceeds the HTTP cost", ov.Value, ov.N))
	}
	res.add("trace.overhead_share", tr.overhead, "ratio", "(in-process step time, spans on vs off)")
	return nil
}
