package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/store"
)

// The GC-race probe writes one small checkpoint whose every chunk Put
// runs a benefactor GC round between the store indexing the chunk and
// the Put returning. That is the window in which benefactor.putChunk has
// not yet recorded the chunk's birth, CollectGarbage reports the birthless
// id as aged, and the manager votes the not-yet-committed id deletable.
// The probe counts the chunks of the acknowledged checkpoint that the
// round deleted: every one of them while the race exists, 0 once it is
// fixed. Forcing the interleaving makes the count exact, where a GC
// ticker only hits the window now and then.
const (
	probeChunks = 4
	probeChunk  = 16 << 10
	// probeWait bounds how long a Put waits for its GC round, so a fix
	// that makes the round wait for the Put cannot deadlock the probe.
	probeWait = time.Second
)

// gcInPutStore runs a GC round of its benefactor inside every Put, after
// the inner store has indexed the chunk, and records what the round
// deletes.
type gcInPutStore struct {
	store.Store
	benef  atomic.Pointer[benefactor.Benefactor]
	rounds sync.WaitGroup

	mu      sync.Mutex
	deleted map[core.ChunkID]bool
}

// Put implements store.Store.
func (s *gcInPutStore) Put(id core.ChunkID, data []byte) (bool, error) {
	retained, err := s.Store.Put(id, data)
	b := s.benef.Load()
	if err != nil || b == nil {
		return retained, err
	}
	done := make(chan struct{})
	s.rounds.Add(1)
	go func() {
		defer s.rounds.Done()
		defer close(done)
		b.CollectGarbage()
	}()
	select {
	case <-done:
	case <-time.After(probeWait):
	}
	return retained, err
}

// Delete implements store.Store.
func (s *gcInPutStore) Delete(id core.ChunkID) error {
	s.mu.Lock()
	s.deleted[id] = true
	s.mu.Unlock()
	return s.Store.Delete(id)
}

// gcRaceProbe runs the probe on a fresh cluster in dir and returns how
// many chunks of the committed checkpoint a GC round deleted, and the
// outcome of restoring it.
func gcRaceProbe(dir string, seed int64) (lost int, restoreErr error, err error) {
	if err := clusterDirs(dir); err != nil {
		return 0, nil, err
	}
	var stores []*gcInPutStore
	cl, err := startCluster(dir, func(s store.Store) store.Store {
		ps := &gcInPutStore{Store: s, deleted: map[core.ChunkID]bool{}}
		stores = append(stores, ps)
		return ps
	})
	if err != nil {
		return 0, nil, err
	}
	defer cl.close()
	for i, ps := range stores {
		ps.benef.Store(cl.benefs[i])
	}
	defer func() {
		for _, ps := range stores {
			ps.rounds.Wait()
		}
	}()

	c, err := client.New(client.Config{
		ManagerAddr: cl.mgr.Addr(),
		StripeWidth: stripeWidth,
		Replication: replication,
		ChunkSize:   probeChunk,
	})
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	img := make([]byte, probeChunks*probeChunk)
	rand.New(rand.NewSource(subSeed(seed, 3000))).Read(img)
	const name = "gcprobe.n0.t0"
	w, err := c.Create(name)
	if err != nil {
		return 0, nil, fmt.Errorf("gc probe: create: %w", err)
	}
	if _, err := w.Write(img); err != nil {
		w.Close()
		return 0, nil, fmt.Errorf("gc probe: write: %w", err)
	}
	if err := w.Close(); err != nil {
		return 0, nil, fmt.Errorf("gc probe: close: %w", err)
	}
	if err := w.Wait(); err != nil {
		return 0, nil, fmt.Errorf("gc probe: wait: %w", err)
	}
	for off := 0; off < len(img); off += probeChunk {
		id := core.HashChunk(img[off : off+probeChunk])
		for _, ps := range stores {
			ps.mu.Lock()
			gone := ps.deleted[id]
			ps.mu.Unlock()
			if gone {
				lost++
				break
			}
		}
	}
	if r, err := c.Open(name); err != nil {
		restoreErr = err
	} else {
		_, restoreErr = r.ReadAll()
		r.Close()
	}
	return lost, restoreErr, nil
}
