package sim

import "sync"

// kit is the storage of one released cluster that grows with its load: the
// engine's event arena and heap, every core's and client pool's run queue,
// and every client's request records and free list. Everything in it has
// been cleared of what pointed into the cluster, so a kit in the store pins
// no old cluster and a cluster that adopts one starts from the same state a
// fresh allocation gives.
type kit struct {
	arena   []event
	heap    []entry
	cores   [][]task
	clients []clientKit
}

// clientKit is one client's share of a kit.
type clientKit struct {
	queue []poolTask
	// records are all the requests the client created, zeroed; free is the
	// empty backing array of its free list.
	records, free []*Request
}

// store holds the kits of released clusters, most recent last, for
// NewCluster to draw. It holds no more kits than there were clusters
// released and not yet replaced at one time: for a campaign, its worker
// count.
var store struct {
	sync.Mutex
	kits []*kit
}

// drawKit takes the most recently released kit, or returns nil.
func drawKit() *kit {
	store.Lock()
	defer store.Unlock()
	n := len(store.kits)
	if n == 0 {
		return nil
	}
	k := store.kits[n-1]
	store.kits[n-1] = nil
	store.kits = store.kits[:n-1]
	return k
}

// adopt hands k's buffers to the freshly built cluster c, whose queues are
// still empty and whose clients have issued nothing. The engine may already
// hold events (the governor tick); they are copied to the same slots. Where
// c has more cores or clients than k served, the extra ones start empty;
// where it has fewer, the surplus buffers are dropped. k keeps its own
// slices for c's Release to refill, but lets go of the buffers.
func (c *Cluster) adopt(k *kit) {
	e := c.Eng
	e.arena = append(k.arena[:0], e.arena...)
	e.heap = append(k.heap[:0], e.heap...)
	k.arena, k.heap = nil, nil
	for i, core := range c.Server.cpu.Cores {
		if i < len(k.cores) {
			core.queue.buf = k.cores[i]
		}
	}
	clear(k.cores)
	for i, cl := range c.Clients {
		if i >= len(k.clients) {
			break
		}
		ck := &k.clients[i]
		cl.cpu.queue.buf = ck.queue
		cl.records = ck.records
		cl.free = append(ck.free[:0], ck.records...)
	}
	clear(k.clients)
	c.kit = k
}

// Release returns the cluster's load-sized storage — event arena and heap,
// run queues, request records and free lists — to a store the next
// NewCluster draws from, so a campaign of many short experiments reuses one
// experiment's memory instead of allocating it again for each. Read every
// result first: the cluster must not be run or inspected afterwards, and
// every Request its clients issued is recycled (zeroed now, overwritten by a
// later cluster). Releasing a cluster twice is a no-op.
func (c *Cluster) Release() {
	if c.released {
		return
	}
	c.released = true
	k := c.kit
	if k == nil {
		k = new(kit)
	}
	c.kit = nil
	e := c.Eng
	clear(e.arena)
	k.arena, k.heap = e.arena[:0], e.heap[:0]
	e.arena, e.heap, e.free, e.hole = nil, nil, 0, false
	k.cores = k.cores[:0]
	for _, core := range c.Server.cpu.Cores {
		k.cores = append(k.cores, core.queue.take())
	}
	k.clients = k.clients[:0]
	for _, cl := range c.Clients {
		for _, r := range cl.records {
			*r = Request{}
		}
		k.clients = append(k.clients, clientKit{
			queue:   cl.cpu.queue.take(),
			records: cl.records,
			free:    cl.free[:0],
		})
		cl.records, cl.free = nil, nil
	}
	store.Lock()
	store.kits = append(store.kits, k)
	store.Unlock()
}
