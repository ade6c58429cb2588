package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/uei-db/uei/internal/al"
	"github.com/uei-db/uei/internal/core"
	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/ide"
	"github.com/uei-db/uei/internal/learn"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/oracle"
)

// span is one timed call of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// spans keeps the traced run's spans in memory and a duration sample set
// per span name. A nil *spans records nothing (tracing off). Single
// goroutine only.
type spans struct {
	t0     time.Time
	list   []span
	stack  []int
	step   int
	byName map[string]*dist
}

func newSpans() *spans {
	return &spans{t0: time.Now(), byName: make(map[string]*dist)}
}

func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Step: s.step, Start: int64(time.Since(s.t0))})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id (the innermost open one) and returns its duration.
func (s *spans) end(id int) time.Duration {
	if s == nil {
		return 0
	}
	sp := &s.list[id]
	sp.End = int64(time.Since(s.t0))
	s.stack = s.stack[:len(s.stack)-1]
	return time.Duration(sp.End - sp.Start)
}

// observe adds a millisecond sample under name.
func (s *spans) observe(name string, d time.Duration) {
	if s == nil {
		return
	}
	ds := s.byName[name]
	if ds == nil {
		ds = &dist{}
		s.byName[name] = ds
	}
	ds.add(ms(d))
}

func (s *spans) dist(name string) *dist {
	if d := s.byName[name]; d != nil {
		return d
	}
	return &dist{}
}

func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedProvider wraps the UEI provider and times every provider call.
// Scoring is split out of EnsureRegion: the wrapper calls
// UpdateUncertainty itself exactly when EnsureRegion would (after a model
// update, and before the first select), so score and region load time
// separately without adding work.
type tracedProvider struct {
	inner *ide.UEIProvider
	idx   *core.Index
	sp    *spans
	stale bool
	// spent is the provider time accumulated so far; the engine's own
	// selection time is a Propose's duration minus what it spent here.
	spent time.Duration
}

func (p *tracedProvider) timed(name string, fn func() error) error {
	id := p.sp.begin(name)
	err := fn()
	d := p.sp.end(id)
	p.sp.observe(name, d)
	p.spent += d
	return err
}

func (p *tracedProvider) Name() string { return p.inner.Name() }

func (p *tracedProvider) Prepare(ctx context.Context) error {
	return p.timed("core.prepare", func() error { return p.inner.Prepare(ctx) })
}

func (p *tracedProvider) BeforeSelect(ctx context.Context, model learn.Classifier) error {
	if p.stale {
		if err := p.timed("core.score", func() error { return p.idx.UpdateUncertainty(ctx, model) }); err != nil {
			return err
		}
		p.stale = false
	}
	return p.timed("core.ensure_region", func() error { return p.inner.BeforeSelect(ctx, model) })
}

func (p *tracedProvider) Candidates(ctx context.Context, fn func(id uint32, row []float64) bool) error {
	return p.inner.Candidates(ctx, fn)
}

func (p *tracedProvider) OnLabeled(id uint32) { p.inner.OnLabeled(id) }

func (p *tracedProvider) ModelUpdated() {
	p.stale = true
	p.inner.ModelUpdated()
}

func (p *tracedProvider) Retrieve(ctx context.Context, model learn.Classifier) ([]uint32, error) {
	var out []uint32
	err := p.timed("core.retrieve", func() error {
		var err error
		out, err = p.inner.Retrieve(ctx, model)
		return err
	})
	return out, err
}

// LastStepDegraded forwards the index's degradation flag to the engine.
func (p *tracedProvider) LastStepDegraded() bool { return p.inner.LastStepDegraded() }

// replayer runs plan sessions in process with the server's session
// configuration over views of one opened index.
type replayer struct {
	idx     *core.Index
	ds      *dataset.Dataset
	w       workload
	plan    []plannedSession
	targets []target
	grant   int64
	scales  []float64
	reg     *obs.Registry
}

// replayed is one replayed session: its workflow, per-step engine time
// and the index counters it moved.
type replayed struct {
	rec   sessionRecord
	steps []time.Duration
	delta core.Stats
	peak  int64
}

// session replays plan entry i exactly as the server's oracle-mode step
// loop drives it. With sp nil the provider is not wrapped and only whole
// steps are timed.
func (r *replayer) session(ctx context.Context, i int, sp *spans) (replayed, error) {
	p := r.plan[i]
	view, err := r.idx.NewView(core.ViewOptions{MemoryBudgetBytes: r.grant, SampleSize: r.w.sampleSize, Seed: p.seed})
	if err != nil {
		return replayed{}, err
	}
	defer view.Close()
	inner, err := ide.NewUEIProvider(view)
	if err != nil {
		return replayed{}, err
	}
	var prov ide.Provider = inner
	tp := &tracedProvider{inner: inner, idx: view, sp: sp, stale: true}
	if sp != nil {
		prov = tp
	}
	user, err := oracle.New(r.ds, r.targets[p.region].region)
	if err != nil {
		return replayed{}, err
	}
	sess, err := ide.NewSession(ide.Config{
		MaxLabels:        p.maxLabels,
		EstimatorFactory: func() learn.Classifier { return learn.NewDWKNN(7, r.scales) },
		Strategy:         al.LeastConfidence{},
		Seed:             p.seed,
		SeedWithPositive: true,
		Registry:         r.reg,
	}, prov, ide.OracleLabeler{O: user})
	if err != nil {
		return replayed{}, err
	}

	out := replayed{rec: sessionRecord{Plan: i, Region: p.region, MaxLabels: p.maxLabels}}
	st0 := view.Stats()
	for done := false; !done; {
		if sp != nil {
			sp.step++
		}
		root := sp.begin("step")
		start := time.Now()
		for {
			pid := sp.begin("ide.propose")
			spent0 := tp.spent
			_, err := sess.Propose(ctx)
			d := sp.end(pid)
			if errors.Is(err, ide.ErrExplorationDone) {
				fid := sp.begin("ide.finish")
				res, err := sess.Finish(ctx)
				sp.observe("ide.finish", sp.end(fid))
				if err != nil {
					return replayed{}, err
				}
				out.rec.Result = append([]uint32(nil), res.Positive...)
				sort.Slice(out.rec.Result, func(a, b int) bool { return out.rec.Result[a] < out.rec.Result[b] })
				done = true
				break
			}
			if err != nil {
				return replayed{}, err
			}
			sp.observe("ide.propose", d)
			sp.observe("ide.select_self", d-(tp.spent-spent0))
			rid := sp.begin("ide.resolve")
			info, err := sess.Resolve(ctx)
			sp.observe("ide.resolve", sp.end(rid))
			if err != nil {
				return replayed{}, err
			}
			if info != nil {
				out.rec.IDs = append(out.rec.IDs, info.SelectedID)
				out.rec.Positive = append(out.rec.Positive, info.Label == oracle.Positive)
				break
			}
		}
		out.steps = append(out.steps, time.Since(start))
		sp.end(root)
	}
	st1 := view.Stats()
	out.delta = core.Stats{
		RegionSwaps:    st1.RegionSwaps - st0.RegionSwaps,
		EntriesVisited: st1.EntriesVisited - st0.EntriesVisited,
		BytesRead:      st1.BytesRead - st0.BytesRead,
		ChunksRead:     st1.ChunksRead - st0.ChunksRead,
	}
	out.peak = st1.PeakMemory
	return out, nil
}

// appendLoop appends paced batches in process until stop closes, timing
// each Index.Append from its due time.
func appendLoop(ctx context.Context, idx *core.Index, ds *dataset.Dataset, w workload, seed int64, stop <-chan struct{}, lat *dist) error {
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * w.appendEvery)
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(due)):
		}
		if _, err := idx.Append(ctx, appendBatch(ds, seed, j, w.appendBatch)); err != nil {
			return err
		}
		lat.add(ms(time.Since(due)))
	}
}

// overheadSessions is how many digest sessions the tracing-overhead
// comparison replays.
const overheadSessions = 4

// tracedResult is what the traced run hands to the report.
type tracedResult struct {
	sp       *spans
	sessions []replayed
	recs     []sessionRecord
	hits     int64
	misses   int64
	appends  dist
	// engine[i][k] is step k of session i's engine time: the faster of
	// its traced and untraced replays.
	engine   [][]time.Duration
	overhead float64 // (traced − untraced) / untraced step time
}

// minSteps is the elementwise minimum of two equally long step-time lists.
func minSteps(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for k := range a {
		out[k] = min(a[k], b[k])
	}
	return out
}

// openReplayer opens storeDir in process with the server's options and
// returns a replayer over the workload's digest sessions. The caller
// closes the returned index.
func openReplayer(ctx context.Context, storeDir string, w workload, ds *dataset.Dataset, targets []target, seed int64) (*replayer, error) {
	reg := obs.NewRegistry()
	idx, err := core.Open(ctx, storeDir, core.Options{
		MemoryBudgetBytes: w.budget,
		Seed:              seed,
		Registry:          reg,
		BlockCacheBytes:   w.cacheBytes,
		Shards:            w.shards,
		LiveIngest:        w.live,
		FlushInterval:     w.flushEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("open store in process: %w", err)
	}
	return &replayer{
		idx: idx, ds: ds, w: w, targets: targets, reg: reg,
		plan: w.plan(seed, w.digestSessions),
		// The server splits what the cache leaves equally between live
		// sessions; two explorers are the most this benchmark runs.
		grant:  (w.budget - w.cacheBytes) / 2,
		scales: idx.Bounds().Widths(),
	}, nil
}

// replayDigest replays the digest sessions in process without spans and
// returns their workflow records in plan order.
func replayDigest(ctx context.Context, storeDir string, w workload, ds *dataset.Dataset, targets []target, seed int64) ([]sessionRecord, error) {
	r, err := openReplayer(ctx, storeDir, w, ds, targets, seed)
	if err != nil {
		return nil, err
	}
	defer r.idx.Close()
	recs := make([]sessionRecord, len(r.plan))
	for i := range r.plan {
		s, err := r.session(ctx, i, nil)
		if err != nil {
			return nil, fmt.Errorf("replayed session %d: %w", i, err)
		}
		recs[i] = s.rec
	}
	return recs, nil
}

// runTraced replays the digest sessions in process with spans on; for a
// live layout a paced appender runs alongside, as in the HTTP run. It then
// replays a few sessions with spans off and on, alternating the order, to
// measure the tracing overhead.
func runTraced(ctx context.Context, storeDir string, w workload, ds *dataset.Dataset, targets []target, seed int64) (*tracedResult, error) {
	r, err := openReplayer(ctx, storeDir, w, ds, targets, seed)
	if err != nil {
		return nil, err
	}
	idx := r.idx
	defer idx.Close()
	tr := &tracedResult{sp: newSpans()}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var appendErr error
	if w.appendEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			appendErr = appendLoop(ctx, idx, ds, w, seed, stop, &tr.appends)
		}()
	}
	c0 := idx.Stats()
	var recs []sessionRecord
	for i := range r.plan {
		s, err := r.session(ctx, i, tr.sp)
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("traced session %d: %w", i, err)
		}
		tr.sessions = append(tr.sessions, s)
		recs = append(recs, s.rec)
	}
	c1 := idx.Stats()
	tr.recs = recs
	tr.hits, tr.misses = c1.CacheHits-c0.CacheHits, c1.CacheMisses-c0.CacheMisses
	// A second, untraced pass gives each step a second engine time; the
	// faster of the two is the step's engine time (noise only adds).
	for i := range r.plan {
		s, err := r.session(ctx, i, nil)
		if err == nil && workflowDigest([]sessionRecord{s.rec}) != workflowDigest(recs[i:i+1]) {
			err = errors.New("workflow differs from the traced replay")
		}
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, fmt.Errorf("untraced session %d: %w", i, err)
		}
		tr.engine = append(tr.engine, minSteps(tr.sessions[i].steps, s.steps))
	}
	close(stop)
	wg.Wait()
	if appendErr != nil {
		return nil, fmt.Errorf("in-process appender: %w", appendErr)
	}

	// Overhead: each session is replayed once to warm caches, then once
	// with spans off and once on, alternating which goes first.
	var on, off time.Duration
	for i := 0; i < overheadSessions && i < len(r.plan); i++ {
		if _, err := r.session(ctx, i, nil); err != nil {
			return nil, fmt.Errorf("overhead replay %d: %w", i, err)
		}
		for pass := 0; pass < 2; pass++ {
			traced := (i+pass)%2 == 1
			var sp *spans
			if traced {
				sp = newSpans()
			}
			s, err := r.session(ctx, i, sp)
			if err != nil {
				return nil, fmt.Errorf("overhead replay %d: %w", i, err)
			}
			for _, d := range s.steps {
				if traced {
					on += d
				} else {
					off += d
				}
			}
		}
	}
	if off > 0 {
		tr.overhead = float64(on-off) / float64(off)
	}
	return tr, nil
}
