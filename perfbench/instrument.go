package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// The instruments below sit at the public seams of each layer; the
// program itself is untouched. A traced run installs all of them, a bare
// run none.

// ---- spans ----

// span is one timed call. Roots are checkpoint writes ("ckpt") and
// restores ("restore"), keyed by the checkpoint's file name; every other
// span hangs under the innermost span open on the same name when it
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so bare runs call the same code.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	open   map[string][]int64 // key -> stack of open span indices
	nextID int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[string][]int64)}
}

// begin opens a span under the innermost open span of key.
func (t *tracer) begin(key, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.add(key, name, now)
	t.open[key] = append(t.open[key], idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(key string, idx int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].End = now
	st := t.open[key]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == idx {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, key)
	} else {
		t.open[key] = st
	}
}

// leaf records a finished span under the innermost open span of key.
func (t *tracer) leaf(key, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := t.add(key, name, start.Sub(t.epoch).Nanoseconds())
	t.spans[idx].End = end.Sub(t.epoch).Nanoseconds()
}

// add appends a span; t.mu must be held.
func (t *tracer) add(key, name string, start int64) int64 {
	t.nextID++
	var parent int64
	if st := t.open[key]; len(st) > 0 {
		parent = t.spans[st[len(st)-1]].ID
	}
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name, Key: key, Start: start})
	return int64(len(t.spans) - 1)
}

// spanTotal is one span name's aggregate.
type spanTotal struct {
	Count       int64
	Total, Self time.Duration
}

// totals aggregates duration and self time by span name. Self time is a
// span's duration minus the part of it its children cover.
func (t *tracer) totals() map[string]*spanTotal {
	children := make(map[int64][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]*spanTotal)
	for _, s := range t.spans {
		agg := out[s.Name]
		if agg == nil {
			agg = &spanTotal{}
			out[s.Name] = agg
		}
		agg.Count++
		d := time.Duration(s.End - s.Start)
		agg.Total += d
		agg.Self += d - covered(s, t.spans, children[s.ID])
	}
	return out
}

// covered is how much of s the union of its children's intervals spans.
func covered(s span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].Start, s.Start), min(all[k].End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// rootOf follows parents to the top; a dangling parent ends the walk.
func rootOf(s span, all []span, byID map[int64]int) span {
	for s.Parent != 0 {
		i, ok := byID[s.Parent]
		if !ok {
			return span{}
		}
		s = all[i]
	}
	return s
}

func isRoot(s span) bool { return s.Name == "ckpt" || s.Name == "restore" }

// checkSpans reports the first malformation in the span tree: a parent
// that does not exist, an unfinished or backwards span, or an RPC span
// without a checkpoint or restore root.
func (t *tracer) checkSpans() error {
	byID := make(map[int64]int, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return fmt.Errorf("span %d %s has missing parent %d", s.ID, s.Name, s.Parent)
			}
		} else if !isRoot(s) {
			return fmt.Errorf("span %d %s (key %q) has no parent", s.ID, s.Name, s.Key)
		}
		if r := rootOf(s, t.spans, byID); !isRoot(r) || r.Key != s.Key {
			return fmt.Errorf("span %d %s (key %q) is not under its checkpoint", s.ID, s.Name, s.Key)
		}
	}
	return nil
}

// ---- metadata RPC boundary (federation) ----

// rpcOps are the metadata operations a checkpoint or restore issues.
var rpcOps = []string{"alloc", "extend", "haschunks", "commit", "getmap", "statversion"}

// wireOps are the chunk-list carrying operations whose encoding is
// replayed through the codec after the run.
var wireOps = []string{"haschunks", "commit", "getmap"}

// maxCaptured bounds the encoded requests and responses kept per op.
const maxCaptured = 1000

type rpcOp struct {
	lat    []time.Duration
	errors int64
	ids    int64
	reqs   [][]byte
	resps  [][]byte
}

// rpcRecorder collects per-op latency, errors and encoded payloads.
type rpcRecorder struct {
	mu  sync.Mutex
	ops map[string]*rpcOp
}

func newRPCRecorder() *rpcRecorder {
	r := &rpcRecorder{ops: make(map[string]*rpcOp)}
	for _, op := range rpcOps {
		r.ops[op] = &rpcOp{}
	}
	return r
}

func (r *rpcRecorder) observe(op string, d time.Duration, err error, ids int, req, resp interface{}) {
	capture := false
	r.mu.Lock()
	o := r.ops[op]
	o.lat = append(o.lat, d)
	o.ids += int64(ids)
	if err != nil {
		o.errors++
	} else if req != nil && len(o.reqs) < maxCaptured {
		capture = true
	}
	r.mu.Unlock()
	if !capture {
		return
	}
	// Encode outside the lock; the payload may be reused by its owner
	// once the call returns, so keep bytes, not the value. The call just
	// sent these values over the wire, so encoding them cannot fail.
	rq, _ := wire.MarshalMeta(req)
	rs, _ := wire.MarshalMeta(resp)
	r.mu.Lock()
	if len(o.reqs) < maxCaptured {
		o.reqs = append(o.reqs, rq)
		o.resps = append(o.resps, rs)
	}
	r.mu.Unlock()
}

// timedEndpoint times the metadata calls of checkpoints and restores and
// links each to its checkpoint through the name argument. Other calls
// pass straight through.
type timedEndpoint struct {
	client.ManagerEndpoint
	rec *rpcRecorder
	tr  *tracer
}

func (e *timedEndpoint) timed(op, name string, ids int, call func() error, req, resp func() interface{}) error {
	start := time.Now()
	err := call()
	end := time.Now()
	e.tr.leaf(name, "rpc."+op, start, end)
	var rq, rs interface{}
	if req != nil && err == nil {
		rq, rs = req(), resp()
	}
	e.rec.observe(op, end.Sub(start), err, ids, rq, rs)
	return err
}

// Alloc implements client.ManagerEndpoint.
func (e *timedEndpoint) Alloc(req proto.AllocReq) (resp proto.AllocResp, err error) {
	err = e.timed("alloc", req.Name, 0, func() (err error) {
		resp, err = e.ManagerEndpoint.Alloc(req)
		return err
	}, nil, nil)
	return resp, err
}

// Extend implements client.ManagerEndpoint.
func (e *timedEndpoint) Extend(name string, req proto.ExtendReq) (resp proto.ExtendResp, err error) {
	err = e.timed("extend", name, 0, func() (err error) {
		resp, err = e.ManagerEndpoint.Extend(name, req)
		return err
	}, nil, nil)
	return resp, err
}

// HasChunks implements client.ManagerEndpoint.
func (e *timedEndpoint) HasChunks(name string, ids []core.ChunkID) (present []bool, err error) {
	err = e.timed("haschunks", name, len(ids), func() (err error) {
		present, err = e.ManagerEndpoint.HasChunks(name, ids)
		return err
	}, func() interface{} { return proto.HasReq{IDs: ids} },
		func() interface{} { return proto.HasResp{Present: present} })
	return present, err
}

// Commit implements client.ManagerEndpoint.
func (e *timedEndpoint) Commit(name string, req proto.CommitReq) (resp proto.CommitResp, err error) {
	err = e.timed("commit", name, 0, func() (err error) {
		resp, err = e.ManagerEndpoint.Commit(name, req)
		return err
	}, func() interface{} { return req }, func() interface{} { return resp })
	return resp, err
}

// GetMap implements client.ManagerEndpoint.
func (e *timedEndpoint) GetMap(req proto.GetMapReq) (resp proto.GetMapResp, err error) {
	err = e.timed("getmap", req.Name, 0, func() (err error) {
		resp, err = e.ManagerEndpoint.GetMap(req)
		return err
	}, func() interface{} { return req }, func() interface{} { return resp })
	return resp, err
}

// StatVersion implements client.ManagerEndpoint.
func (e *timedEndpoint) StatVersion(req proto.StatVersionReq) (resp proto.StatVersionResp, err error) {
	err = e.timed("statversion", req.Name, 0, func() (err error) {
		resp, err = e.ManagerEndpoint.StatVersion(req)
		return err
	}, nil, nil)
	return resp, err
}

// codecCost replays the captured payloads of op through the wire codec
// and returns the mean request and response sizes and the mean time to
// decode and re-encode one call's request plus response.
func codecCost(op string, o *rpcOp) (reqBytes, respBytes, encodeNs, decodeNs float64, err error) {
	if len(o.reqs) == 0 {
		return 0, 0, 0, 0, nil
	}
	newPair := map[string]func() (interface{}, interface{}){
		"haschunks": func() (interface{}, interface{}) { return &proto.HasReq{}, &proto.HasResp{} },
		"commit":    func() (interface{}, interface{}) { return &proto.CommitReq{}, &proto.CommitResp{} },
		"getmap":    func() (interface{}, interface{}) { return &proto.GetMapReq{}, &proto.GetMapResp{} },
	}[op]
	const passes = 3
	var enc, dec time.Duration
	for p := 0; p < passes; p++ {
		for i := range o.reqs {
			rq, rs := newPair()
			t0 := time.Now()
			if err := wire.UnmarshalMeta(o.reqs[i], rq); err != nil {
				return 0, 0, 0, 0, err
			}
			if err := wire.UnmarshalMeta(o.resps[i], rs); err != nil {
				return 0, 0, 0, 0, err
			}
			t1 := time.Now()
			if _, err := wire.MarshalMeta(rq); err != nil {
				return 0, 0, 0, 0, err
			}
			if _, err := wire.MarshalMeta(rs); err != nil {
				return 0, 0, 0, 0, err
			}
			dec += t1.Sub(t0)
			enc += time.Since(t1)
		}
	}
	var rqb, rsb int
	for i := range o.reqs {
		rqb += len(o.reqs[i])
		rsb += len(o.resps[i])
	}
	n := float64(len(o.reqs))
	return float64(rqb) / n, float64(rsb) / n, float64(enc.Nanoseconds()) / n / passes, float64(dec.Nanoseconds()) / n / passes, nil
}

// ---- benefactor store ----

type storeOp struct {
	count, busyNs, bytes, errors atomic.Int64
}

func (o *storeOp) observe(start time.Time, n int, err error) {
	o.busyNs.Add(time.Since(start).Nanoseconds())
	o.count.Add(1)
	o.bytes.Add(int64(n))
	if err != nil {
		o.errors.Add(1)
	}
}

// storeStats aggregates store traffic over all benefactors of a run.
type storeStats struct {
	put, get storeOp
	deletes  atomic.Int64
}

// timedStore wraps a benefactor's store and times its data operations.
type timedStore struct {
	store.Store
	st *storeStats
}

// Put implements store.Store.
func (s *timedStore) Put(id core.ChunkID, data []byte) (bool, error) {
	start := time.Now()
	retained, err := s.Store.Put(id, data)
	s.st.put.observe(start, len(data), err)
	return retained, err
}

// Get implements store.Store.
func (s *timedStore) Get(id core.ChunkID) ([]byte, error) {
	start := time.Now()
	b, err := s.Store.Get(id)
	s.st.get.observe(start, len(b), err)
	return b, err
}

// GetInto implements store.Store.
func (s *timedStore) GetInto(id core.ChunkID, dst []byte) ([]byte, error) {
	start := time.Now()
	b, err := s.Store.GetInto(id, dst)
	s.st.get.observe(start, len(b), err)
	return b, err
}

// Delete implements store.Store.
func (s *timedStore) Delete(id core.ChunkID) error {
	s.st.deletes.Add(1)
	return s.Store.Delete(id)
}

// ---- connections (wire) ----

// connCounter counts the connections a shaper wraps and the writes and
// bytes that cross them.
type connCounter struct {
	dials, writes, bytesOut, bytesIn atomic.Int64
}

func (c *connCounter) shaper() wire.Shaper {
	return func(conn net.Conn) net.Conn {
		c.dials.Add(1)
		return &countedConn{Conn: conn, c: c}
	}
}

type countedConn struct {
	net.Conn
	c *connCounter
}

func (cc *countedConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(int64(n))
	return n, err
}

func (cc *countedConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.bytesIn.Add(int64(n))
	return n, err
}

// ---- the set a traced run installs ----

// layerSet holds every instrument of one traced run.
type layerSet struct {
	tr        *tracer
	rpc       *rpcRecorder
	store     *storeStats
	mgrConns  connCounter // client -> manager (router shaper)
	dataConns connCounter // client -> benefactors (client shaper)
}

func newLayerSet() *layerSet {
	return &layerSet{tr: newTracer(), rpc: newRPCRecorder(), store: &storeStats{}}
}

// dumpSpans writes the run's spans, with its label, under dir.
func (l *layerSet) dumpSpans(dir string, o options, lbl label) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(struct {
		Label label  `json:"label"`
		Spans []span `json:"spans"`
	}{lbl, l.tr.spans})
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
