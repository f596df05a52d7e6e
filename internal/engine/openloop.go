package engine

// RateBucket is one arrival-ordered slice of an open-loop run, the unit of
// the saturation analysis: the run's operations are split into
// Config.KneeBuckets consecutive groups by arrival, so on a ramp scenario
// each bucket covers a narrow band of offered rates.
type RateBucket struct {
	// Index is the bucket's position (0-based, arrival order).
	Index int `json:"index"`
	// StartTime and EndTime delimit the bucket's arrival span in simulated
	// ticks: StartTime is the bucket's first arrival and EndTime the next
	// bucket's first arrival (the last bucket, with no successor, ends at
	// its own last arrival). Half-open spans keep the inter-bucket gaps
	// inside exactly one bucket, so the spans tile the run.
	StartTime int64 `json:"start_time"`
	EndTime   int64 `json:"end_time"`
	// Arrivals is the number of requests arriving in the bucket, of which
	// Completed finished and Dropped were shed at the full admission queue.
	Arrivals  int `json:"arrivals"`
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`
	// OfferedRate is Arrivals divided by the arrival span — the offered
	// load in operations per simulated tick.
	OfferedRate float64 `json:"offered_rate"`
	// P50 and P99 summarize the end-to-end latency (arrival to completion)
	// of the bucket's completed operations. Latency is attributed to the
	// arrival bucket, not the completion bucket, so it lines up with the
	// offered rate that caused it.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// MaxQueueDepth and MaxBacklog are the deepest admission queue and the
	// largest in-system population (in flight + queued) observed at the
	// bucket's arrival instants.
	MaxQueueDepth int `json:"max_queue_depth"`
	MaxBacklog    int `json:"max_backlog"`
}

// Knee is the detected saturation point of an open-loop run: the first
// rate bucket where the system diverges. Divergence means either end-to-end
// p99 latency reaching kneeFactor (4) times the baseline bucket's p99
// ("latency"), or the bounded admission queue overflowing into drops
// ("queue"). The baseline is the first bucket with enough completions to
// yield a stable p99.
type Knee struct {
	// Bucket indexes Result.Buckets.
	Bucket int `json:"bucket"`
	// OfferedRate is the bucket's offered load — the measured saturation
	// throughput in operations per simulated tick.
	OfferedRate float64 `json:"offered_rate"`
	// SimTime is the arrival time at which the knee bucket opened.
	SimTime int64 `json:"sim_time"`
	// Reason is "latency" or "queue".
	Reason string `json:"reason"`
	// BaselineP99 is the pre-saturation reference p99; P99 the knee
	// bucket's.
	BaselineP99 float64 `json:"baseline_p99"`
	P99         float64 `json:"p99"`
}

// opRec tracks one open-loop request through its lifecycle: 32 bytes per
// arrival, the one record the engine keeps per request (bucket boundaries
// need the final arrival count). The injection time lives in the
// initiator's flight while the request runs, and nothing reads it after.
type opRec struct {
	arrival    int64
	done       int64 // completion time; -1 while outstanding
	key        int32
	queueDepth int32 // admission-queue depth observed at arrival
	backlog    int32 // in flight + queued at arrival
	dropped    bool
}

// bucketize splits the op records (already in arrival order) into at most
// buckets consecutive equal-count groups and summarizes each. A bucket's
// span runs from its first arrival to the *next* bucket's first arrival
// (half-open), so the gap between the bucket's last arrival and its
// successor counts toward the offered-rate denominator; closing the span at
// the bucket's own last arrival instead would drop every inter-bucket gap
// and bias OfferedRate high — worst for the sparse low-rate buckets the
// scaling fit leans on. The final bucket, with no successor, ends at its
// own last arrival.
func bucketize(recs []opRec, buckets int) []RateBucket {
	if len(recs) == 0 {
		return nil
	}
	if buckets > len(recs) {
		buckets = len(recs)
	}
	out := make([]RateBucket, 0, buckets)
	var lats digest
	for i := 0; i < buckets; i++ {
		lo := i * len(recs) / buckets
		hi := (i + 1) * len(recs) / buckets
		if lo >= hi {
			continue
		}
		group := recs[lo:hi]
		end := group[len(group)-1].arrival
		if hi < len(recs) {
			end = recs[hi].arrival
		}
		b := RateBucket{
			Index:     len(out),
			StartTime: group[0].arrival,
			EndTime:   end,
			Arrivals:  len(group),
		}
		lats.reset()
		for _, r := range group {
			switch {
			case r.dropped:
				b.Dropped++
			case r.done >= 0:
				b.Completed++
				lats.add(r.done - r.arrival)
			}
			b.MaxQueueDepth = max(b.MaxQueueDepth, int(r.queueDepth))
			b.MaxBacklog = max(b.MaxBacklog, int(r.backlog))
		}
		span := b.EndTime - b.StartTime
		if span < 1 {
			span = 1
		}
		b.OfferedRate = float64(b.Arrivals) / float64(span)
		s := lats.stats()
		b.P50, b.P99 = s.P50, s.P99
		out = append(out, b)
	}
	return out
}

// minKneeOps is the fewest completions a bucket needs for its p99 to count
// (as baseline or as knee evidence).
const minKneeOps = 8

// kneeFactor is the saturation threshold: a bucket whose p99 latency
// reaches kneeFactor times the baseline bucket's p99 marks the knee.
const kneeFactor = 4

// detectKnee scans the buckets for the saturation point. The baseline is
// the first bucket with at least minKneeOps completions; the knee is the
// first later bucket that drops requests (the admission queue overflowed)
// or whose p99 reaches kneeFactor times the baseline p99. Returns nil when the
// run never saturates.
func detectKnee(buckets []RateBucket) *Knee {
	base := -1
	for i, b := range buckets {
		if b.Completed >= minKneeOps {
			base = i
			break
		}
	}
	if base < 0 {
		return nil
	}
	threshold := kneeFactor * buckets[base].P99
	if threshold < kneeFactor {
		threshold = kneeFactor // all-zero baseline: any measurable p99 blowup counts
	}
	for i := base + 1; i < len(buckets); i++ {
		b := buckets[i]
		if b.Dropped > 0 {
			return &Knee{
				Bucket:      i,
				OfferedRate: b.OfferedRate,
				SimTime:     b.StartTime,
				Reason:      "queue",
				BaselineP99: buckets[base].P99,
				P99:         b.P99,
			}
		}
		if b.Completed >= minKneeOps && b.P99 >= threshold {
			return &Knee{
				Bucket:      i,
				OfferedRate: b.OfferedRate,
				SimTime:     b.StartTime,
				Reason:      "latency",
				BaselineP99: buckets[base].P99,
				P99:         b.P99,
			}
		}
	}
	return nil
}
