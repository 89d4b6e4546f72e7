package grid

import (
	"bytes"
	"strings"
	"testing"

	"stdchk/internal/client"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
)

// TestClientMemberListReachesFederation: a client built from a
// comma-separated ManagerAddr alone must route through the federation.
// A checkpoint it commits lands on the member owning its dataset and
// restores intact.
func TestClientMemberListReachesFederation(t *testing.T) {
	const managers = 2
	c := fedCluster(t, managers, 4)
	cl, err := client.New(client.Config{
		ManagerAddr: strings.Join(c.ManagerAddrs(), ","),
		StripeWidth: 2,
		ChunkSize:   32 << 10,
		Replication: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const name = "memberlist.n0.t0"
	img := fedImage(77, 96<<10)
	writeFile(t, cl, name, img)
	if got := readFile(t, cl, name); !bytes.Equal(got, img) {
		t.Fatalf("restored %d bytes, mismatch", len(got))
	}
	owner := federation.OwnerIndex("memberlist.n0", managers)
	for i, m := range c.Managers {
		want := 0
		if i == owner {
			want = 1
		}
		if got := m.Stats().Datasets; got != want {
			t.Fatalf("member %d holds %d datasets, want %d (owner is member %d)", i, got, want, owner)
		}
	}
}

// TestSingleAddressStatsPassThrough: against one manager the client's
// stats are that manager's own snapshot, per-stripe detail included, not
// a federation-wide merge.
func TestSingleAddressStatsPassThrough(t *testing.T) {
	c := testCluster(t, 2, manager.Config{})
	cl, err := client.New(client.Config{ManagerAddr: c.Manager.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.ManagerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CatalogStripes) == 0 {
		t.Fatal("single-manager stats lost their catalog stripes")
	}
	if st.Federation != nil {
		t.Fatalf("single-manager stats carry federation info %+v", st.Federation)
	}
	if st.OnlineBenefactors != 2 {
		t.Fatalf("stats see %d online benefactors, want 2", st.OnlineBenefactors)
	}
}
