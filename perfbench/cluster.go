package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// The fixed deployment every workload runs against.
const (
	benefactorCount = 4
	stripeWidth     = 4
	// replication stays 1: the replication copier runs on a wall-clock
	// ticker, so a higher target would tie a run's cost to timer phase.
	replication = 1
	// gcInterval keeps the benefactors' GC ticker from firing during a
	// run. With the default 30 s grace a round reclaims nothing inside a
	// run, but a round that lands inside a chunk Put deletes the
	// acknowledged chunk (the race gcRaceProbe measures), so the ticker
	// would make failures depend on timer phase.
	gcInterval = time.Hour
)

// cluster is one fresh in-process deployment: a manager journaling in
// relaxed async mode and benefactorCount benefactors on disk-backed
// stores, each a real TCP server on loopback with no device models.
type cluster struct {
	mgr    *manager.Manager
	benefs []*benefactor.Benefactor
}

// clusterDirs creates the directories a cluster under dir keeps its
// journal and stores in. The harness makes them before the timed start,
// as a deployment makes its data directories before starting daemons.
func clusterDirs(dir string) error {
	for i := 0; i < benefactorCount; i++ {
		if err := os.MkdirAll(benefactorDir(dir, i), 0o755); err != nil {
			return fmt.Errorf("cluster dir: %w", err)
		}
	}
	return nil
}

func benefactorDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("benef-%d", i))
}

// startCluster starts a cluster in dir (see clusterDirs) and returns once
// every benefactor has registered. A non-nil wrap wraps each benefactor's
// disk store.
func startCluster(dir string, wrap func(store.Store) store.Store) (*cluster, error) {
	m, err := manager.New(manager.Config{
		ListenAddr:         "127.0.0.1:0",
		DefaultStripeWidth: stripeWidth,
		DefaultReplication: replication,
		JournalPath:        filepath.Join(dir, "manager.journal"),
	})
	if err != nil {
		return nil, fmt.Errorf("start manager: %w", err)
	}
	c := &cluster{mgr: m}
	for i := 0; i < benefactorCount; i++ {
		id := fmt.Sprintf("benef-%d", i)
		ds, err := store.OpenDisk(benefactorDir(dir, i), 0, nil)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("open store %s: %w", id, err)
		}
		var s store.Store = ds
		if wrap != nil {
			s = wrap(ds)
		}
		b, err := benefactor.New(benefactor.Config{
			ID:          core.NodeID(id),
			ManagerAddr: m.Addr(),
			Store:       s,
			GCInterval:  gcInterval,
		})
		if err != nil {
			ds.Close()
			c.close()
			return nil, fmt.Errorf("start benefactor %s: %w", id, err)
		}
		c.benefs = append(c.benefs, b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().OnlineBenefactors < benefactorCount {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("benefactors did not register within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c, nil
}

// close stops the benefactors, then the manager. The files stay for the
// caller to remove.
func (c *cluster) close() {
	for _, b := range c.benefs {
		b.Close()
	}
	c.mgr.Close()
}
