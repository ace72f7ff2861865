package sim

import "testing"

// drainStore empties the store of released kits, so a test that releases
// clusters leaves the next test fresh allocations (TestRequestRecycling
// counts the records a client's free list holds).
func drainStore() {
	store.Lock()
	store.kits = nil
	store.Unlock()
}

// releaseOverloaded runs a 4-client cluster past the server's capacity and
// releases it mid-flight: its queues, arena and records are large and in use.
func releaseOverloaded(t *testing.T) *Cluster {
	t.Helper()
	cl, err := NewCluster(DefaultClusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.Clients {
		if err := openLoop(1.2e6)(c); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(0.01)
	if cl.TotalOutstanding() < 100 {
		t.Fatalf("only %d requests in flight at the horizon; the cluster is not overloaded", cl.TotalOutstanding())
	}
	cl.Release()
	return cl
}

// TestReleaseClearsStorage: a released kit holds nothing that points into
// its cluster — no event, queued task or request field survives — and the
// released cluster gives up its buffers.
func TestReleaseClearsStorage(t *testing.T) {
	drainStore()
	t.Cleanup(drainStore)
	cl := releaseOverloaded(t)
	if len(store.kits) != 1 {
		t.Fatalf("store holds %d kits after one release, want 1", len(store.kits))
	}
	k := store.kits[0]
	for i, ev := range k.arena[:cap(k.arena)] {
		if ev != (event{}) {
			t.Fatalf("arena slot %d not cleared: %+v", i, ev)
		}
	}
	for i, buf := range k.cores {
		for j, tk := range buf {
			if tk != (task{}) {
				t.Fatalf("core %d queue slot %d not cleared", i, j)
			}
		}
	}
	records := 0
	for i, ck := range k.clients {
		for j, pt := range ck.queue {
			if pt != (poolTask{}) {
				t.Fatalf("client %d pool slot %d not cleared", i, j)
			}
		}
		for _, r := range ck.records {
			if *r != (Request{}) {
				t.Fatalf("client %d record not zeroed: %+v", i, *r)
			}
		}
		records += len(ck.records)
	}
	if records < cl.TotalOutstanding() {
		t.Errorf("kit holds %d records, fewer than the %d in flight at release", records, cl.TotalOutstanding())
	}
	if cl.Eng.arena != nil || cl.Eng.heap != nil || cl.Clients[0].records != nil {
		t.Error("released cluster still holds its buffers")
	}
	cl.Release()
	if len(store.kits) != 1 {
		t.Errorf("a second Release added a kit: %d in the store", len(store.kits))
	}
}

// TestReleasedStorageStreamGolden: a cluster built on storage another
// cluster released produces the golden stream. The first case runs on the
// kit of an overloaded cluster released mid-flight, every later one on the
// kit the run before it released: another server, another client
// configuration, requests still in flight at its horizon.
func TestReleasedStorageStreamGolden(t *testing.T) {
	drainStore()
	t.Cleanup(drainStore)
	releaseOverloaded(t)
	for _, sc := range streamCases() {
		for i, seed := range streamSeeds {
			cfg := DefaultClusterConfig(4)
			sc.mutate(&cfg)
			cfg.Seed = seed
			got, n, cl := fingerprint(t, cfg, sc.start, sc.horizon)
			if cl.kit == nil {
				t.Fatalf("%s seed %d: the cluster drew no released storage", sc.name, seed)
			}
			if want := streamGolden[sc.name][i]; got != want {
				t.Errorf("%s seed %d: stream fingerprint %#016x over %d requests on reused storage, want %#016x",
					sc.name, seed, got, n, want)
			}
			cl.Release()
		}
	}
}
