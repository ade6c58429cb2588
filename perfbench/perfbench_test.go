package main

import (
	"math"
	"testing"
	"time"
)

func TestPctOrderStatistics(t *testing.T) {
	var d dist
	for v := 100; v >= 1; v-- { // 1..100, added out of order
		d.add(float64(v))
	}
	for _, tc := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.50, 50, 50},
		{0.90, 90, 10},
		{0.99, 99, 1},
		{1.00, 100, 0},
		{0.001, 1, 99},
	} {
		got := d.pct(tc.q)
		if got.Value != tc.want || got.Beyond != tc.beyond || got.N != 100 {
			t.Errorf("pct(%g) = %+v, want value %g beyond %d n 100", tc.q, got, tc.want, tc.beyond)
		}
	}
	if !d.pct(0.90).valid() || d.pct(0.99).valid() {
		t.Errorf("validity: p90 of 100 has 10 beyond (valid), p99 has 1 (invalid)")
	}
}

func TestPctEdgeCases(t *testing.T) {
	var empty dist
	if s := empty.pct(0.5); s.N != 0 || s.Value != 0 || s.valid() {
		t.Errorf("empty pct = %+v, want zero and invalid", s)
	}
	var one dist
	one.add(7)
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if s := one.pct(q); s.Value != 7 || s.Beyond != 0 {
			t.Errorf("single-sample pct(%g) = %+v", q, s)
		}
	}
	// Ranks that are integers in exact arithmetic must not round up.
	var ten dist
	for v := 1; v <= 10; v++ {
		ten.add(float64(v))
	}
	if s := ten.pct(0.9); s.Value != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", s.Value)
	}
	// Ties and adding after a percentile was taken.
	var ties dist
	for i := 0; i < 5; i++ {
		ties.add(3)
	}
	ties.pct(0.5)
	ties.add(1)
	if s := ties.pct(0.01); s.Value != 1 || s.N != 6 {
		t.Errorf("after add, p1 = %+v, want 1 over 6 samples", s)
	}
	// A p99 needs at least 1000 samples to have 10 beyond it.
	var big dist
	for i := 0; i < 999; i++ {
		big.add(float64(i))
	}
	if big.pct(0.99).valid() {
		t.Errorf("p99 of 999 samples must be invalid")
	}
	big.add(999)
	if !big.pct(0.99).valid() {
		t.Errorf("p99 of 1000 samples must be valid, got %+v", big.pct(0.99))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if in[0] != 4 {
		t.Errorf("median reordered its input")
	}
	if median(nil) != 0 {
		t.Errorf("empty median must be 0")
	}
}

func TestF1(t *testing.T) {
	for _, tc := range []struct {
		name       string
		got, truth []uint32
		want       float64
	}{
		{"both empty", nil, nil, 1},
		{"nothing retrieved", nil, []uint32{1}, 0},
		{"nothing relevant", []uint32{1}, nil, 0},
		{"exact", []uint32{1, 5, 9}, []uint32{1, 5, 9}, 1},
		{"disjoint", []uint32{2, 4}, []uint32{1, 3}, 0},
		// tp=2, precision 2/4, recall 2/3: F1 = 2*(1/2)(2/3)/(1/2+2/3) = 4/7.
		{"partial", []uint32{1, 2, 3, 8}, []uint32{2, 3, 7}, 4.0 / 7},
	} {
		if got := f1(tc.got, tc.truth); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: f1 = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestWorkflowDigest(t *testing.T) {
	base := []sessionRecord{
		{Plan: 0, Region: 1, MaxLabels: 7, IDs: []uint32{4, 9}, Positive: []bool{true, false}, Result: []uint32{4, 5}},
		{Plan: 1, Region: 0, MaxLabels: 6, IDs: []uint32{2}, Positive: []bool{false}, Result: nil},
	}
	clone := func() []sessionRecord {
		out := make([]sessionRecord, len(base))
		for i, r := range base {
			r.IDs = append([]uint32(nil), r.IDs...)
			r.Positive = append([]bool(nil), r.Positive...)
			r.Result = append([]uint32(nil), r.Result...)
			out[i] = r
		}
		return out
	}
	want := workflowDigest(base)
	if got := workflowDigest(clone()); got != want {
		t.Fatalf("equal records digest differently: %s vs %s", got, want)
	}
	if len(want) != 16 {
		t.Errorf("digest %q is not 16 hex digits", want)
	}
	mutations := map[string]func(r []sessionRecord){
		"label flipped":   func(r []sessionRecord) { r[0].Positive[1] = true },
		"label reordered": func(r []sessionRecord) { r[0].IDs[0], r[0].IDs[1] = r[0].IDs[1], r[0].IDs[0] },
		"result changed":  func(r []sessionRecord) { r[0].Result[1] = 6 },
		"result moved":    func(r []sessionRecord) { r[1].Result = []uint32{5}; r[0].Result = r[0].Result[:1] },
		"budget changed":  func(r []sessionRecord) { r[1].MaxLabels = 8 },
		"sessions swapped": func(r []sessionRecord) {
			r[0], r[1] = r[1], r[0]
		},
	}
	for name, mutate := range mutations {
		r := clone()
		mutate(r)
		if workflowDigest(r) == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

func TestSchedule(t *testing.T) {
	due := schedule(4, time.Second)
	want := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond}
	if len(due) != len(want) {
		t.Fatalf("schedule(4/s, 1s) = %v, want %v", due, want)
	}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("arrival %d due at %v, want %v", i, due[i], want[i])
		}
	}
	if n := len(schedule(2.5, 10*time.Second)); n != 25 {
		t.Errorf("2.5/s over 10s gives %d arrivals, want 25", n)
	}
	if len(schedule(0, time.Second)) != 0 || len(schedule(3, 0)) != 0 {
		t.Errorf("zero rate or window must schedule nothing")
	}
	a, b := schedule(3.3, 7*time.Second), schedule(3.3, 7*time.Second)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedule is not deterministic at %d", i)
		}
	}
}

func TestPacerKeepsScheduleAndCountsMissed(t *testing.T) {
	start := time.Now()
	p := newPacer(start, 100*time.Millisecond, 50) // due every 20ms: 5 arrivals
	for k := 0; k < 5; k++ {
		i, due, ok := p.take()
		if !ok || i != k {
			t.Fatalf("take %d = %d, %v", k, i, ok)
		}
		if time.Now().Before(due) {
			t.Fatalf("arrival %d started before it was due", k)
		}
	}
	if _, _, ok := p.take(); ok {
		t.Fatalf("take after the schedule ran out must fail")
	}
	if p.behind(1) || p.lag.n() != 5 {
		t.Errorf("on-time generator: behind=%v lag samples=%d", p.behind(1), p.lag.n())
	}

	// A generator whose slot is busy past the window's close misses every
	// remaining arrival and reports it fell behind.
	late := newPacer(time.Now().Add(-time.Second), 500*time.Millisecond, 10)
	if _, _, ok := late.take(); ok {
		t.Fatalf("take after the window closed must fail")
	}
	if late.missed != 5 || !late.behind(2) {
		t.Errorf("missed=%d behind=%v, want 5 and true", late.missed, late.behind(2))
	}
}

func TestPlanIsSeeded(t *testing.T) {
	w, err := workloadNamed("explore-long")
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.plan(3, 50), w.plan(3, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan differs at %d for one seed", i)
		}
		if a[i].maxLabels < w.minLabels || a[i].maxLabels > w.maxLabels {
			t.Errorf("session %d label budget %d outside [%d, %d]", i, a[i].maxLabels, w.minLabels, w.maxLabels)
		}
	}
	c := w.plan(4, 50)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Errorf("plans for different seeds are identical")
	}
}

func TestCappedAtNproc(t *testing.T) {
	for _, w := range workloads {
		if got, cut := w.capped(2); cut || got.clients != w.clients || got.openSlots != w.openSlots {
			t.Errorf("%s: a 2-vCPU host must run the workload as defined", w.name)
		}
		got, _ := w.capped(1)
		explorers := max(got.clients, got.openSlots)
		if explorers != 1 {
			t.Errorf("%s on 1 vCPU: %d explorers, want 1", w.name, explorers)
		}
	}
}

func TestCheckReplay(t *testing.T) {
	targets := []target{{truth: []uint32{1, 2, 3}}, {truth: []uint32{7}}}
	recs := func() []sessionRecord {
		return []sessionRecord{
			{Plan: 0, Region: 0, MaxLabels: 3, IDs: []uint32{2}, Positive: []bool{true}, Result: []uint32{1, 2}},
			{Plan: 1, Region: 1, MaxLabels: 3, IDs: []uint32{5}, Positive: []bool{false}, Result: []uint32{7}},
		}
	}
	failed := func(mutate func(r []sessionRecord)) []string {
		res := &result{metrics: map[string]metric{}}
		r := recs()
		mutate(r)
		checkReplay(res, recs(), r, targets, "replay")
		return res.invalid
	}
	if got := failed(func([]sessionRecord) {}); len(got) != 0 {
		t.Errorf("identical replay failed checks: %v", got)
	}
	// A different label sequence with the same result changes the digest
	// only; a different result changes both digest and F1.
	if got := failed(func(r []sessionRecord) { r[1].IDs[0] = 6 }); len(got) != 1 {
		t.Errorf("changed labels: %d failed checks %v, want 1", len(got), got)
	}
	if got := failed(func(r []sessionRecord) { r[0].Result = []uint32{1, 2, 3} }); len(got) != 2 {
		t.Errorf("changed result: %d failed checks %v, want 2", len(got), got)
	}
	res := &result{metrics: map[string]metric{}}
	empty := recs()
	for i := range empty {
		empty[i].Result = nil
	}
	checkReplay(res, empty, empty, targets, "replay")
	if len(res.invalid) != 1 {
		t.Errorf("sessions retrieving nothing: failed checks %v, want the mean-F1 check", res.invalid)
	}
}
