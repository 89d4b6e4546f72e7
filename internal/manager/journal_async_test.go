package manager

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// The tests in this file pin the ordered async journal writer's contract:
// ticket order equals publication order (so a deterministic workload
// yields exactly the bytes the historical inline writer produced),
// replaying a journal written under racing COW/dedup commits reconstructs
// exactly the live catalog's final state (in any stripe layout — the
// PR 3 invariance harness extended to the async writer), and a clean
// Close drains every acknowledged entry before the file closes.

// sequentialGolden is the journal the historical synchronous writer
// produced for driveSequentialJournal's workload, captured before that
// writer was removed. The entries carry no timestamps, so the bytes are
// deterministic.
const sequentialGolden = "testdata/sequential.journal"

// driveSequentialJournal pushes a fixed, deterministic workload through a
// manager's handlers with no concurrency and returns the journal bytes.
func driveSequentialJournal(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seq.journal")
	m, err := New(Config{
		JournalPath:       path,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.reg.register(regReq("sq1", 1<<30), 0)
	for w := 0; w < 3; w++ {
		for ti := 0; ti < 4; ti++ {
			name := fmt.Sprintf("seq.n%d.t%d", w, ti)
			alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 512, ReserveBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			chunks, total := commitChunks(int64(w*100+ti), 2, 512)
			if _, err := m.handleCommit(proto.CommitReq{
				WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.handleDelete(proto.DeleteReq{Name: "seq.n1.t2"}); err != nil {
		t.Fatal(err)
	}
	m.policies.set("seq", core.Policy{Kind: core.PolicyReplace, KeepVersions: 2})
	m.journalRecord(journalEntry{Op: "policy", Name: "seq", Policy: &core.Policy{Kind: core.PolicyReplace, KeepVersions: 2}})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAsyncJournalByteIdenticalToSync: on a deterministic sequential
// workload the ticket-ordered async writer must produce byte-for-byte
// the journal the historical synchronous writer produced (the golden
// file).
func TestAsyncJournalByteIdenticalToSync(t *testing.T) {
	want, err := os.ReadFile(sequentialGolden)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("golden journal is empty")
	}
	if got := driveSequentialJournal(t); !bytes.Equal(want, got) {
		t.Fatalf("async journal diverged from %s:\nwant: %s\ngot:  %s", sequentialGolden, want, got)
	}
}

// TestAsyncJournalReplayMatchesLiveState: racing COW/dedup commits and
// deletes journaled through the async writer must replay — in any stripe
// layout, including the single-lock reference — to exactly the live
// catalog's final state.
func TestAsyncJournalReplayMatchesLiveState(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		journalPath, live := driveJournalWorkload(t, 8, 5)
		if len(live.Datasets) == 0 || len(live.Chunks) == 0 {
			t.Fatal("live workload produced an empty catalog")
		}
		for _, stripes := range []int{1, 16} {
			replayed := replayCatalogSnap(t, journalPath, stripes, false)
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("journal replay with %d stripes diverged from live state:\nlive:     %+v\nreplayed: %+v",
					stripes, live, replayed)
			}
		}
	})
}

// TestAsyncJournalCloseDrains: every commit acknowledged before Close
// must be on disk after Close returns — the writer goroutine drains its
// queue and flushes before the file closes, whatever the backlog.
func TestAsyncJournalCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.journal")
	m, err := New(Config{
		JournalPath:       path,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.reg.register(regReq("dr1", 1<<30), 0)
	const commits = 500
	for i := 0; i < commits; i++ {
		name := fmt.Sprintf("drain.n%d.t0", i)
		alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 256, ReserveBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		chunks, total := commitChunks(int64(i), 1, 256)
		if _, err := m.handleCommit(proto.CommitReq{
			WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Close immediately: the writer goroutine may still hold a large
	// backlog of acknowledged entries.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != commits {
		t.Fatalf("journal holds %d entries after Close, want %d acknowledged commits", len(entries), commits)
	}
	// Ticket order on disk: this workload commits drain.nI sequentially,
	// so the journal must list them in commit order.
	for i, e := range entries {
		if want := fmt.Sprintf("drain.n%d.t0", i); e.Name != want {
			t.Fatalf("entry %d is %q, want %q (ticket order violated)", i, e.Name, want)
		}
	}
	// A replacement manager must see every version.
	m2, err := New(Config{JournalPath: path, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().Versions; got != commits {
		t.Fatalf("replay after drained close restored %d versions, want %d", got, commits)
	}
}

// TestAsyncJournalRecordAfterClose: a record attempted after close must
// report ErrClosed, not hang or panic against the closed queue.
func TestAsyncJournalRecordAfterClose(t *testing.T) {
	j, err := openJournal(filepath.Join(t.TempDir(), "c.journal"), false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(journalEntry{Op: "policy", Name: "x", Policy: &core.Policy{}}, false); err != nil {
		t.Fatal(err)
	}
	j.close()
	if err := j.record(journalEntry{Op: "policy", Name: "y", Policy: &core.Policy{}}, false); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("record after close returned %v, want ErrClosed", err)
	}
	// close is idempotent.
	j.close()
}
