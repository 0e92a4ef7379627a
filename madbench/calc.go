package main

import (
	"math"
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Times are offsets from the owning tracer's epoch; Parent is 0 for a
// root span.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// covered returns how much of [lo, hi) the union of the children's intervals
// covers. Children may overlap each other (concurrent workers) and may start
// before lo or end after hi; only the part inside [lo, hi) counts, once.
func covered(lo, hi time.Duration, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns every span's self time: its duration minus the part of
// it that its direct children cover. Grandchildren lie inside their parents,
// so they are already accounted for by the child that contains them.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// commit is one journal commit of a visit record: its sequence number and
// when the append returned, as an offset from the start of the run.
type commit struct {
	Seq int64
	At  time.Duration
}

// commitLatencies times each of the offered impressions from its due time to
// its commit. Impression seq is due seq/rate after the run started; with
// rate 0 (a closed loop that offers all its work at once) every impression
// is due at the start. An impression that never committed — shed, or lost —
// counts as a miss: it is charged the whole rest of the run, end − due,
// the least it could have waited.
func commitLatencies(commits []commit, offered int, rate float64, end time.Duration) []time.Duration {
	due := func(seq int64) time.Duration {
		if rate <= 0 {
			return 0
		}
		return time.Duration(float64(seq) / rate * float64(time.Second))
	}
	at := make(map[int64]time.Duration, len(commits))
	for _, c := range commits {
		at[c.Seq] = c.At
	}
	out := make([]time.Duration, 0, offered)
	for seq := int64(0); seq < int64(offered); seq++ {
		t, ok := at[seq]
		if !ok {
			t = end
		}
		out = append(out, t-due(seq))
	}
	return out
}

// genLag is how much longer an open-loop run took than its schedule: the
// run time minus offered ÷ rate. A closed loop (rate 0) has no schedule, so
// its whole run is lag.
func genLag(run time.Duration, offered int, rate float64) time.Duration {
	if rate <= 0 {
		return run
	}
	return run - time.Duration(float64(offered)/rate*float64(time.Second))
}

// median returns the middle of xs (the mean of the two middles for an even
// count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1), or 0 for
// none. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(i, 0), n-1)]
}

// ratio is num ÷ den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
