package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
	"stdchk/internal/store"
)

// setupReps is how many fresh clusters a run starts to time set-up; the
// last one runs the workload.
const setupReps = 21

// report is what one measured phase produced.
type report struct {
	t      *tally
	e2e    map[string]metric
	layers map[string]metric // traced phases only
	lay    *layerSet
}

func (r *report) result(ms map[string]metric) result {
	return result{Correct: r.t.correct(), Attempted: r.t.attempted, Failed: r.t.failed, Metrics: ms}
}

// measure starts fresh clusters, runs the workload on the last one for
// seconds, and derives the metrics.
func measure(o options, spec workloadSpec, dir string, seconds float64, traced bool) (*report, error) {
	var lay *layerSet
	var wrap func(store.Store) store.Store
	if traced {
		lay = newLayerSet()
		wrap = func(s store.Store) store.Store { return &timedStore{Store: s, st: lay.store} }
	}
	defer os.RemoveAll(dir)
	dirs := make([]string, setupReps)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("cluster%d", i))
		if err := clusterDirs(dirs[i]); err != nil {
			return nil, err
		}
	}
	setups := make([]float64, 0, setupReps)
	var cl *cluster
	for i, d := range dirs {
		start := time.Now()
		c, err := startCluster(d, wrap)
		if err != nil {
			return nil, err
		}
		setups = append(setups, since(start))
		if i < setupReps-1 {
			c.close()
		} else {
			cl = c
		}
	}
	defer cl.close()

	e := &env{seed: o.seed, cl: cl, lay: lay, t: &tally{}}
	admin, err := e.newClient(client.Config{})
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	e.admin = admin
	if e.before, err = admin.ManagerStats(); err != nil {
		return nil, fmt.Errorf("manager stats: %w", err)
	}
	e.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	if err := spec.run(e); err != nil {
		return nil, err
	}
	t := e.t
	for _, msg := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", msg)
	}
	if t.attempted == 0 || t.ckpts == 0 {
		return nil, fmt.Errorf("no checkpoint committed in %gs", seconds)
	}
	rep := &report{t: t, lay: lay, e2e: endToEnd(e, median(setups))}
	if traced {
		if rep.layers, err = perLayer(e, spec, o.seed); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// endToEnd derives the metrics a user of the system sees.
func endToEnd(e *env, setup float64) map[string]metric {
	t := e.t
	d := deltaStats(e.before, e.after)
	return map[string]metric{
		"setup_s":               {setup, "s"},
		"write_oab_MBps":        {mbps(t.writeBytes, t.openClose), "MB/s"},
		"write_asb_MBps":        {mbps(t.writeBytes, t.openStored), "MB/s"},
		"restore_MBps":          {mbps(t.restoreBytes, t.restoreT), "MB/s"},
		"upload_bytes_per_byte": {ratio(t.uploaded, t.writeBytes), "B/B"},
		"stored_bytes_per_byte": {ratio(d.StoredBytes, d.LogicalBytes), "B/B"},
		"ckpts_per_s":           {float64(t.ckpts) / t.wall.Seconds(), "1/s"},
		"ckpt_p50_ms":           {ms(quantile(t.ckptLat, 0.5)), "ms"},
		"restore_p50_ms":        {ms(quantile(t.restoreLat, 0.5)), "ms"},
		"ok_ops_frac":           {1 - ratio(t.failed, t.attempted), "frac"},
	}
}

// perLayer derives the traced phase's per-layer metrics.
func perLayer(e *env, spec workloadSpec, seed int64) (map[string]metric, error) {
	t, l := e.t, e.lay
	d := deltaStats(e.before, e.after)
	out := map[string]metric{
		"client.write_call_s":               {t.writeCall.Seconds(), "s"},
		"client.close_s":                    {t.closeT.Seconds(), "s"},
		"client.commit_wait_s":              {t.waitT.Seconds(), "s"},
		"client.open_s":                     {t.openT.Seconds(), "s"},
		"client.read_s":                     {t.readT.Seconds(), "s"},
		"client.uploaded_bytes":             {float64(t.uploaded), "B"},
		"client.deduped_bytes":              {float64(t.deduped), "B"},
		"client.fetched_bytes":              {float64(t.fetched), "B"},
		"client.batched_bytes":              {float64(t.batched), "B"},
		"client.mapcache_hit_ratio":         {ratio(t.mapHits, t.mapHits+t.mapMisses), "frac"},
		"client.ckpt_p99_ms":                {ms(quantile(t.ckptLat, 0.99)), "ms"},
		"failed_ops_frac":                   {ratio(t.failed, t.attempted), "frac"},
		"manager.alloc_p50_us":              {us(metrics.Percentile(d.AllocLatency.Buckets, 0.5)), "us"},
		"manager.commit_p50_us":             {us(metrics.Percentile(d.CommitLatency.Buckets, 0.5)), "us"},
		"manager.commit_p99_us":             {us(metrics.Percentile(d.CommitLatency.Buckets, 0.99)), "us"},
		"manager.transactions_per_ckpt":     {ratio(d.Transactions, t.ckpts), "count"},
		"manager.dedup_hit_ratio":           {ratio(d.DedupHits, d.DedupChunks), "frac"},
		"manager.journal_records_per_batch": {ratio(d.JournalBatchLen, d.JournalBatches), "count"},
		"manager.stripe_contention_ratio":   {ratio(d.StripeContention, d.StripeOps), "frac"},
		"manager.admission_shed":            {float64(d.Admission.Shed), "count"},
		"manager.admission_peak_queue":      {float64(e.after.Admission.PeakQueueDepth), "count"},
		"manager.mapcache_hit_ratio":        {ratio(d.MapCache.Hits, d.MapCache.Hits+d.MapCache.Misses), "frac"},
		"store.put.count":                   {float64(l.store.put.count.Load()), "count"},
		"store.put.busy_s":                  {float64(l.store.put.busyNs.Load()) / 1e9, "s"},
		"store.put.bytes":                   {float64(l.store.put.bytes.Load()), "B"},
		"store.put.errors":                  {float64(l.store.put.errors.Load()), "count"},
		"store.get.count":                   {float64(l.store.get.count.Load()), "count"},
		"store.get.busy_s":                  {float64(l.store.get.busyNs.Load()) / 1e9, "s"},
		"store.get.bytes":                   {float64(l.store.get.bytes.Load()), "B"},
		"store.get.errors":                  {float64(l.store.get.errors.Load()), "count"},
		"store.delete.count":                {float64(l.store.deletes.Load()), "count"},
	}
	for _, op := range rpcOps {
		o := l.rpc.ops[op]
		out["rpc."+op+".count"] = metric{float64(len(o.lat)), "count"}
		out["rpc."+op+".p50_us"] = metric{us(quantile(o.lat, 0.5)), "us"}
		out["rpc."+op+".p99_us"] = metric{us(quantile(o.lat, 0.99)), "us"}
		out["rpc."+op+".errors"] = metric{float64(o.errors), "count"}
	}
	hc := l.rpc.ops["haschunks"]
	out["rpc.haschunks.ids_per_call"] = metric{ratio(hc.ids, int64(len(hc.lat))), "count"}
	for _, op := range wireOps {
		rq, rs, enc, dec, err := codecCost(op, l.rpc.ops[op])
		if err != nil {
			return nil, fmt.Errorf("codec replay %s: %w", op, err)
		}
		out["wire."+op+".req_bytes"] = metric{rq, "B"}
		out["wire."+op+".resp_bytes"] = metric{rs, "B"}
		out["wire."+op+".encode_ns"] = metric{enc, "ns"}
		out["wire."+op+".decode_ns"] = metric{dec, "ns"}
	}
	chunks := l.store.put.count.Load() + l.store.get.count.Load()
	out["wire.meta_bytes_per_ckpt"] = metric{ratio(l.mgrConns.bytesOut.Load()+l.mgrConns.bytesIn.Load(), t.ckpts), "B"}
	out["wire.data_bytes_per_byte"] = metric{ratio(l.dataConns.bytesOut.Load()+l.dataConns.bytesIn.Load(), t.writeBytes+t.restoreBytes), "B/B"}
	out["wire.conn_writes_per_chunk"] = metric{ratio(l.dataConns.writes.Load(), chunks), "count"}
	out["wire.conns_dialed"] = metric{float64(l.mgrConns.dials.Load() + l.dataConns.dials.Load()), "count"}

	cbch, hash := layerSpeeds(spec, seed)
	out["chunker.cbch_ns_per_byte"] = metric{cbch, "ns/B"}
	out["core.hash_ns_per_byte"] = metric{hash, "ns/B"}

	if err := l.tr.checkSpans(); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	tot := l.tr.totals()
	var selfClient, selfRPC, selfRoot time.Duration
	for name, s := range tot {
		switch {
		case strings.HasPrefix(name, "client."):
			selfClient += s.Self
		case strings.HasPrefix(name, "rpc."):
			selfRPC += s.Self
		default:
			selfRoot += s.Self
		}
	}
	out["trace.spans"] = metric{float64(len(l.tr.spans)), "count"}
	out["trace.self.client_s"] = metric{selfClient.Seconds(), "s"}
	out["trace.self.rpc_s"] = metric{selfRPC.Seconds(), "s"}
	out["trace.self.root_s"] = metric{selfRoot.Seconds(), "s"}
	return out, nil
}

// layerSpeeds times the live CbCH boundary finder and the chunk hash on
// the workload's own input bytes, cut by the workload's own chunking.
func layerSpeeds(spec workloadSpec, seed int64) (cbchNsPerByte, hashNsPerByte float64) {
	data := spec.sample(seed)
	s := chunker.NewStream(incCbCH)
	start := time.Now()
	for rest := data; len(rest) > 0; {
		n, _ := s.Feed(rest)
		rest = rest[n:]
	}
	s.Flush()
	cbch := time.Since(start)

	spans := spec.chunking.Split(data)
	var sink core.ChunkID
	start = time.Now()
	for _, sp := range spans {
		id := core.HashChunk(data[sp.Off : sp.Off+sp.Len])
		sink[0] ^= id[0]
	}
	hash := time.Since(start)
	_ = sink
	n := float64(len(data))
	return float64(cbch.Nanoseconds()) / n, float64(hash.Nanoseconds()) / n
}

// deltaStats subtracts the counters the metrics use.
func deltaStats(a, b proto.ManagerStats) proto.ManagerStats {
	return proto.ManagerStats{
		LogicalBytes:     b.LogicalBytes - a.LogicalBytes,
		StoredBytes:      b.StoredBytes - a.StoredBytes,
		Transactions:     b.Transactions - a.Transactions,
		DedupChunks:      b.DedupChunks - a.DedupChunks,
		DedupHits:        b.DedupHits - a.DedupHits,
		JournalBatches:   b.JournalBatches - a.JournalBatches,
		JournalBatchLen:  b.JournalBatchLen - a.JournalBatchLen,
		StripeOps:        b.StripeOps - a.StripeOps,
		StripeContention: b.StripeContention - a.StripeContention,
		Admission:        proto.AdmissionStats{Shed: b.Admission.Shed - a.Admission.Shed},
		MapCache: proto.MapCacheStats{
			Hits:   b.MapCache.Hits - a.MapCache.Hits,
			Misses: b.MapCache.Misses - a.MapCache.Misses,
		},
		AllocLatency:  proto.LatencyStats{Buckets: subBuckets(b.AllocLatency.Buckets, a.AllocLatency.Buckets)},
		CommitLatency: proto.LatencyStats{Buckets: subBuckets(b.CommitLatency.Buckets, a.CommitLatency.Buckets)},
	}
}

func subBuckets(b, a []int64) []int64 {
	out := append([]int64(nil), b...)
	for i := range a {
		if i < len(out) {
			out[i] -= a[i]
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// printSpanTable prints span count, total and self time by span name.
func printSpanTable(out io.Writer, tr *tracer) {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  %-22s %10s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range names {
		s := tot[n]
		fmt.Fprintf(out, "  %-22s %10d %12.4f %12.4f\n", n, s.Count, s.Total.Seconds(), s.Self.Seconds())
	}
}
