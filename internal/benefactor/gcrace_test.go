package benefactor

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// gcInPutStore runs a GC round of its benefactor inside every Put, after
// the inner store has indexed the chunk and before Put returns: the
// window in which an upload is stored but not yet committed.
type gcInPutStore struct {
	store.Store
	benef   atomic.Pointer[Benefactor]
	deleted atomic.Int64
}

func (s *gcInPutStore) Put(id core.ChunkID, data []byte) (bool, error) {
	retained, err := s.Store.Put(id, data)
	b := s.benef.Load()
	if err != nil || b == nil {
		return retained, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if n, _ := b.CollectGarbage(); n > 0 {
			s.deleted.Add(int64(n))
		}
	}()
	// Bounded, so a fix that makes the round wait for the Put cannot
	// deadlock the test.
	select {
	case <-done:
	case <-time.After(time.Second):
	}
	return retained, err
}

// TestGCRoundInsidePutKeepsFreshChunk: a GC round that runs while a chunk
// Put is in flight must see the chunk as freshly born. Reporting it as
// aged lets the manager, which has no commit referencing it yet, vote it
// deletable, and an upload the client is about to commit is lost.
func TestGCRoundInsidePutKeepsFreshChunk(t *testing.T) {
	m, err := manager.New(manager.Config{ListenAddr: "127.0.0.1:0", HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	s := &gcInPutStore{Store: store.NewMemory(0, nil)}
	b := startNode(t, Config{ManagerAddr: m.Addr(), Store: s, GCInterval: time.Hour})
	s.benef.Store(b)
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().OnlineBenefactors < 1 {
		if time.Now().After(deadline) {
			t.Fatal("benefactor did not register")
		}
		time.Sleep(time.Millisecond)
	}

	data := []byte("uploaded, not yet committed")
	id := core.HashChunk(data)
	call(t, b.Addr(), proto.BPut, proto.PutReq{ID: id}, data, nil)
	if n := s.deleted.Load(); n != 0 {
		t.Fatalf("GC round inside Put deleted %d chunks, want 0", n)
	}
	if !s.Has(id) {
		t.Fatal("freshly put chunk was collected before its commit")
	}
}

// failingPutStore fails every Put.
type failingPutStore struct{ store.Store }

func (failingPutStore) Put(core.ChunkID, []byte) (bool, error) {
	return false, core.ErrNoSpace
}

// TestFailedPutLeavesNoBirth: the birth stamped ahead of a Put must be
// rolled back when the Put fails, so a failed upload leaves no state.
func TestFailedPutLeavesNoBirth(t *testing.T) {
	b := startNode(t, Config{Store: failingPutStore{store.NewMemory(0, nil)}})
	data := []byte("never stored")
	if _, err := b.putChunk(core.HashChunk(data), data); err == nil {
		t.Fatal("put through a failing store succeeded")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.births) != 0 {
		t.Fatalf("failed put left %d births", len(b.births))
	}
}

// TestGCRoundSparesChunkReputDuringReport: an aged chunk the manager no
// longer references that is put again while a GC round waits for the
// manager's verdict is being uploaded for a new commit. The round must
// not delete it, even though the verdict names it.
func TestGCRoundSparesChunkReputDuringReport(t *testing.T) {
	data := []byte("aged, unreferenced, uploaded again")
	id := core.HashChunk(data)
	var node atomic.Pointer[Benefactor]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := wire.NewServer(ln, func(req *wire.Req) (wire.Resp, error) {
		switch req.Op {
		case proto.MRegister:
			return wire.Resp{Meta: proto.RegisterResp{HeartbeatInterval: time.Hour}}, nil
		case proto.MHeartbeat:
			return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
		case proto.MGCReport:
			// The re-put lands between the report and the verdict.
			if _, err := node.Load().putChunk(id, data); err != nil {
				return wire.Resp{}, err
			}
			return wire.Resp{Meta: proto.GCReportResp{Deletable: []core.ChunkID{id}}}, nil
		}
		return wire.Resp{}, fmt.Errorf("unexpected op %s", req.Op)
	}, nil)
	t.Cleanup(func() { mgr.Close() })
	b := startNode(t, Config{ManagerAddr: mgr.Addr(), GCInterval: time.Hour})
	node.Store(b)
	if _, err := b.putChunk(id, data); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	b.births[id] = time.Now().Add(-time.Hour) // aged past the grace
	b.mu.Unlock()

	n, err := b.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !b.Store().Has(id) {
		t.Fatalf("GC round deleted %d chunks, including the re-put one", n)
	}
}
