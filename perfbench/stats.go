package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minBeyond is how many samples a named percentile needs beyond it before
// a run counts as valid: a p99 needs at least 1000 samples, a p90 100.
const minBeyond = 10

// dist is a set of raw samples (one per request or call). Percentiles are
// exact order statistics over them, never bucketed estimates.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.vals) }

func (d *dist) sum() float64 {
	var t float64
	for _, v := range d.vals {
		t += v
	}
	return t
}

// stat is one reported order statistic with the evidence behind it.
type stat struct {
	Value float64 `json:"value"`
	// N is the sample count and Beyond how many samples lie strictly
	// above the statistic's rank.
	N      int `json:"n"`
	Beyond int `json:"beyond"`
}

// valid reports whether the statistic rests on enough tail samples.
func (s stat) valid() bool { return s.N > 0 && s.Beyond >= minBeyond }

// pct returns the nearest-rank q-quantile (0 < q <= 1): the sample of
// 1-based rank ceil(q*n) in ascending order. Beyond is n minus that rank.
// An empty set yields a zero stat with N = 0.
func (d *dist) pct(q float64) stat {
	n := len(d.vals)
	if n == 0 {
		return stat{}
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	rank := nearestRank(q, n)
	return stat{Value: d.vals[rank-1], N: n, Beyond: n - rank}
}

// nearestRank is the 1-based rank of the q-quantile among n samples,
// clamped to [1, n]. The small epsilon keeps q*n that is an integer in
// exact arithmetic (0.9*100) from rounding up through float error.
func nearestRank(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// mean returns the arithmetic mean (0 for an empty set).
func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return d.sum() / float64(len(d.vals))
}

// median is the middle value of vals, averaging the two middle values of
// an even count; it leaves vals unchanged.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// f1 scores a retrieved id set against the ground truth. Both slices must
// be sorted ascending and duplicate-free. Two empty sets agree perfectly.
func f1(got, truth []uint32) float64 {
	if len(got) == 0 && len(truth) == 0 {
		return 1
	}
	if len(got) == 0 || len(truth) == 0 {
		return 0
	}
	tp := 0
	for i, j := 0, 0; i < len(got) && j < len(truth); {
		switch {
		case got[i] == truth[j]:
			tp++
			i++
			j++
		case got[i] < truth[j]:
			i++
		default:
			j++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(len(got))
	r := float64(tp) / float64(len(truth))
	return 2 * p * r / (p + r)
}

// sessionRecord is one session's workflow: what it asked for, every label
// it gave (tuple id and answer, in order) and the ids its result returned.
// Timing is deliberately absent; equal seeds must give equal records.
type sessionRecord struct {
	Plan      int
	Region    int
	MaxLabels int
	IDs       []uint32
	Positive  []bool
	Result    []uint32
}

// workflowDigest hashes records (FNV-64a, fixed-width little-endian
// fields) in slice order. Callers pass records in plan order.
func workflowDigest(recs []sessionRecord) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(uint64(r.Plan))
		put(uint64(r.Region))
		put(uint64(r.MaxLabels))
		put(uint64(len(r.IDs)))
		for i, id := range r.IDs {
			v := uint64(id) << 1
			if r.Positive[i] {
				v |= 1
			}
			put(v)
		}
		put(uint64(len(r.Result)))
		for _, id := range r.Result {
			put(uint64(id))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
