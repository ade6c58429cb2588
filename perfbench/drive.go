package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/server"
)

// budgetMs is the paper's per-iteration interactivity budget.
const budgetMs = 500

// stepKey names one step by its aligned workflow position: the session's
// plan index and the step's 0-based index inside the session.
type stepKey struct{ plan, step int }

// httpRun drives one workload's timed window over the HTTP API and keeps
// every raw sample.
type httpRun struct {
	w       workload
	c       *client
	ds      *dataset.Dataset
	plan    []plannedSession
	targets []target
	seed    int64
	start   time.Time
	end     time.Time

	mu            sync.Mutex
	create        dist // POST /v1/sessions, from due
	step          dist // non-terminal POST /step
	final         dist // terminal POST /step
	session       dist // arrival to GET /result answered
	appendLat     dist // POST /v1/append, from due
	stepsInWindow int
	// sliceSteps counts steps completed per 5 s slice of the window.
	sliceSteps   []int
	goodInWindow int
	stepLat      map[stepKey]float64
	records      map[int]sessionRecord
	f1s          []float64
	errs         []string

	explorers *pacer // open loop only
	appender  *pacer

	appended  int // rows acknowledged
	lastTotal int // TotalRows of the final acknowledgement
	idsOK     bool
}

func newHTTPRun(w workload, c *client, ds *dataset.Dataset, targets []target, seed int64) *httpRun {
	return &httpRun{
		w: w, c: c, ds: ds, targets: targets, seed: seed,
		plan:    w.plan(seed, 20000),
		stepLat: make(map[stepKey]float64),
		records: make(map[int]sessionRecord),
		idsOK:   true,
	}
}

func (r *httpRun) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// sessionSpec is plan entry i as an oracle-mode session: the server
// labels with the benchmark's own region, so both sides share ground
// truth.
func (r *httpRun) sessionSpec(i int) server.SessionSpec {
	p := r.plan[i]
	tg := r.targets[p.region]
	return server.SessionSpec{
		Name:       fmt.Sprintf("perfbench-%d", i),
		MaxLabels:  p.maxLabels,
		Seed:       p.seed,
		SampleSize: r.w.sampleSize,
		Oracle:     &server.OracleSpec{Center: tg.region.Center, Widths: tg.region.Widths},
	}
}

// run drives the window: explorers (closed or open loop) plus the paced
// appender, then waits for every client goroutine to finish.
func (r *httpRun) run(window time.Duration) {
	r.start = time.Now()
	r.end = r.start.Add(window)
	r.sliceSteps = make([]int, (window+5*time.Second-1)/(5*time.Second))
	var wg sync.WaitGroup
	if r.w.openRate > 0 {
		r.explorers = newPacer(r.start, window, r.w.openRate)
		for s := 0; s < r.w.openSlots; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i, due, ok := r.explorers.take()
					if !ok {
						return
					}
					r.runSession(i, due)
				}
			}()
		}
	} else {
		var next atomic.Int64
		for c := 0; c < r.w.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(r.end) {
					r.runSession(int(next.Add(1)-1), time.Now())
				}
			}()
		}
	}
	if r.w.appendEvery > 0 {
		r.appender = newPacer(r.start, window, float64(time.Second)/float64(r.w.appendEvery))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runAppender()
		}()
	}
	wg.Wait()
}

// runSession drives plan entry i, which arrived (was due) at due. Sessions
// outside the digest prefix are abandoned at the window's close; digest
// sessions always finish.
func (r *httpRun) runSession(i int, due time.Time) {
	mustFinish := i < r.w.digestSessions
	info, err := r.c.create(r.sessionSpec(i))
	r.mu.Lock()
	r.create.add(ms(time.Since(due)))
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
		return
	}
	p := r.plan[i]
	rec := sessionRecord{Plan: i, Region: p.region, MaxLabels: p.maxLabels}
	for k := 0; ; k++ {
		if !mustFinish && time.Now().After(r.end) {
			_ = r.c.remove(info.ID)
			return
		}
		t0 := time.Now()
		resp, err := r.c.step(info.ID)
		t1 := time.Now()
		if err != nil {
			r.fail(err)
			_ = r.c.remove(info.ID)
			return
		}
		lat := ms(t1.Sub(t0))
		r.mu.Lock()
		r.stepLat[stepKey{i, k}] = lat
		if !t1.After(r.end) {
			if k := int(t1.Sub(r.start) / (5 * time.Second)); k < len(r.sliceSteps) {
				r.sliceSteps[k]++
			}
			r.stepsInWindow++
			if lat <= budgetMs {
				r.goodInWindow++
			}
		}
		if resp.Done {
			r.final.add(lat)
		} else {
			r.step.add(lat)
		}
		r.mu.Unlock()
		if resp.Done {
			break
		}
		if resp.Iteration == nil {
			r.fail(fmt.Errorf("session %d step %d: no iteration in a non-terminal step", i, k))
			_ = r.c.remove(info.ID)
			return
		}
		rec.IDs = append(rec.IDs, resp.Iteration.SelectedID)
		rec.Positive = append(rec.Positive, resp.Iteration.Label == "positive")
	}
	res, err := r.c.result(info.ID)
	done := time.Now()
	if err != nil {
		r.fail(err)
		_ = r.c.remove(info.ID)
		return
	}
	rec.Result = append([]uint32(nil), res.Positive...)
	sort.Slice(rec.Result, func(a, b int) bool { return rec.Result[a] < rec.Result[b] })
	score := f1(rec.Result, r.targets[p.region].truth)
	if err := r.c.remove(info.ID); err != nil {
		r.fail(err)
	}
	r.mu.Lock()
	r.session.add(ms(done.Sub(due)))
	r.records[i] = rec
	r.f1s = append(r.f1s, score)
	r.mu.Unlock()
}

// appendBatch is the j-th appended batch: copies of seeded random rows of
// the generated data, so every row lies inside the store's pinned bounds.
func appendBatch(ds *dataset.Dataset, seed int64, j, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed*104729 + int64(j)))
	out := make([][]float64, n)
	for i := range out {
		out[i] = ds.CopyRow(dataset.RowID(rng.Intn(ds.Len())))
	}
	return out
}

// runAppender posts one batch per due tick, one request in flight, and
// checks the acknowledged id ranges are contiguous.
func (r *httpRun) runAppender() {
	nextID := -1
	for {
		j, due, ok := r.appender.take()
		if !ok {
			return
		}
		resp, err := r.c.appendRows(appendBatch(r.ds, r.seed, j, r.w.appendBatch))
		lat := ms(time.Since(due))
		if err != nil {
			r.fail(err)
			continue
		}
		r.mu.Lock()
		r.appendLat.add(lat)
		if nextID >= 0 && int(resp.FirstID) != nextID {
			r.idsOK = false
		}
		nextID = int(resp.FirstID) + resp.Count
		r.appended += resp.Count
		r.lastTotal = resp.TotalRows
		r.mu.Unlock()
	}
}

// digestRecords returns the digest prefix of the plan, or an error naming
// the first session that did not complete.
func (r *httpRun) digestRecords() ([]sessionRecord, error) {
	out := make([]sessionRecord, r.w.digestSessions)
	for i := range out {
		rec, ok := r.records[i]
		if !ok {
			return nil, fmt.Errorf("digest session %d did not complete", i)
		}
		out[i] = rec
	}
	return out, nil
}
