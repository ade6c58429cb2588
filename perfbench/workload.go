package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/uei-db/uei/internal/dataset"
	"github.com/uei-db/uei/internal/oracle"
)

// workload is one named load shape. See README.md for why each exists.
type workload struct {
	name string
	// rows is the generated store size.
	rows int
	// Layout: shard count, live (streaming) layout, block cache and the
	// global memory budget the server partitions. The block cache holds
	// cacheShare of the built store's decoded chunks; setUp derives
	// cacheBytes from the store.
	shards     int
	live       bool
	cacheShare float64
	cacheBytes int64
	budget     int64
	flushEvery time.Duration

	// Explorers: closed-loop clients (no think time) or, with openRate >
	// 0, open-loop session arrivals per second over openSlots slots.
	clients   int
	openRate  float64
	openSlots int
	// Sessions draw a label budget in [minLabels, maxLabels] and one of
	// the target regions (by selectivity), in seeded order.
	minLabels, maxLabels int
	selectivities        []float64
	sampleSize           int

	// appendEvery paces one appender of appendBatch-row batches.
	appendEvery time.Duration
	appendBatch int

	// digestSessions is the plan prefix whose workflow forms the digest
	// and which the traced run replays. Every run must complete it.
	digestSessions int
}

const (
	mib = 1 << 20
	// dataSeed fixes the generated data and the target regions. They are
	// the benchmark's fixture: the workload seed varies the sessions and
	// appended rows over them, so figures from different seeds compare.
	dataSeed = 1
)

var workloads = []workload{
	{
		name:           "explore-long",
		rows:           40_000,
		shards:         2,
		cacheShare:     0.25,
		budget:         64 * mib,
		clients:        2,
		minLabels:      30,
		maxLabels:      40,
		selectivities:  []float64{0.05, 0.02, 0.01},
		sampleSize:     1000,
		digestSessions: 20,
	},
	{
		name:           "explore-short",
		rows:           20_000,
		shards:         1,
		cacheShare:     1.5,
		budget:         64 * mib,
		openRate:       11.5,
		openSlots:      2,
		minLabels:      6,
		maxLabels:      8,
		selectivities:  []float64{0.05, 0.02, 0.01},
		sampleSize:     1000,
		digestSessions: 20,
	},
	{
		name:           "ingest-mixed",
		rows:           40_000,
		shards:         2,
		live:           true,
		cacheShare:     0.25,
		budget:         64 * mib,
		flushEvery:     time.Second,
		clients:        1,
		minLabels:      15,
		maxLabels:      20,
		selectivities:  []float64{0.05, 0.02, 0.01},
		sampleSize:     1000,
		appendEvery:    50 * time.Millisecond,
		appendBatch:    64,
		digestSessions: 20,
	},
}

// capped limits the client goroutines (explorers plus the appender) to
// nproc, keeping at least one explorer. It reports whether it cut any.
func (w workload) capped(nproc int) (workload, bool) {
	free := nproc
	if w.appendEvery > 0 {
		free--
	}
	free = max(free, 1)
	cut := false
	if w.clients > free {
		w.clients, cut = free, true
	}
	if w.openSlots > free {
		w.openSlots, cut = free, true
	}
	return w, cut
}

func workloadNamed(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// target is one explored interest region with its ground truth.
type target struct {
	region oracle.Region
	truth  []uint32 // sorted ids inside the region
}

// makeTargets synthesizes one region per selectivity over the benchmark's
// own copy of the data and computes each region's ground truth.
func makeTargets(ds *dataset.Dataset, sels []float64, seed int64) ([]target, error) {
	out := make([]target, len(sels))
	for i, sel := range sels {
		r, err := oracle.FindRegion(ds, sel, 0.5, seed*31+int64(i)+1, 12)
		if err != nil {
			return nil, fmt.Errorf("region %d (selectivity %g): %w", i, sel, err)
		}
		ids := ds.Select(r.Box())
		truth := make([]uint32, len(ids))
		for j, id := range ids {
			truth[j] = uint32(id)
		}
		sort.Slice(truth, func(a, b int) bool { return truth[a] < truth[b] })
		out[i] = target{region: r, truth: truth}
	}
	return out, nil
}

// plannedSession is one session of the seeded plan.
type plannedSession struct {
	region    int
	maxLabels int
	seed      int64
}

// plan draws n sessions: regions round-robin from a seeded start, label
// budgets uniform in the workload's range, distinct sampling seeds.
func (w workload) plan(seed int64, n int) []plannedSession {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	first := rng.Intn(len(w.selectivities))
	out := make([]plannedSession, n)
	for i := range out {
		out[i] = plannedSession{
			region:    (first + i) % len(w.selectivities),
			maxLabels: w.minLabels + rng.Intn(w.maxLabels-w.minLabels+1),
			seed:      seed*1_000_003 + int64(i) + 1,
		}
	}
	return out
}
