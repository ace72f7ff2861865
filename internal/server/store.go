// Package server implements a memcached-compatible in-memory key-value
// server over TCP: a sharded LRU store behind the ASCII protocol. It is
// the real-network system under test for Treadmill's TCP mode — the role
// memcached plays in the paper's testbed.
package server

import (
	"bytes"
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// item is one stored entry.
type item struct {
	key   string
	flags uint32
	value []byte
	elem  *list.Element
}

// shard is one lock-striped partition of the store with its own LRU list.
type shard struct {
	mu    sync.Mutex
	items map[string]*item
	lru   *list.List // front = most recent
	bytes int64
	cap   int64
	stats statCounters
}

// Store is a sharded LRU key-value store. Sharding keeps lock hold times
// short under the high request concurrency a load test produces.
type Store struct {
	shards []*shard
	mask   uint64

	// counters are per-shard to avoid a shared hot cacheline; aggregated
	// on demand by Stats.
}

// StoreStats is a point-in-time aggregate over shards.
type StoreStats struct {
	Items     int64
	Bytes     int64
	Gets      int64
	Hits      int64
	Sets      int64
	Deletes   int64
	Evictions int64
}

// statCounters lives inside shard to keep updates uncontended.
type statCounters struct {
	gets, hits, sets, deletes, evictions int64
}

// NewStore builds a store with the given shard count (rounded up to a
// power of two) and a per-shard byte capacity derived from totalBytes.
func NewStore(shardCount int, totalBytes int64) (*Store, error) {
	if shardCount < 1 {
		return nil, fmt.Errorf("server: shard count %d must be >= 1", shardCount)
	}
	if totalBytes < 1 {
		return nil, fmt.Errorf("server: capacity %d must be >= 1 byte", totalBytes)
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	s := &Store{shards: make([]*shard, n), mask: uint64(n - 1)}
	per := totalBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range s.shards {
		s.shards[i] = &shard{items: make(map[string]*item), lru: list.New(), cap: per}
	}
	return s, nil
}

// fnv1a hashes the key for shard selection.
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func (s *Store) shardFor(key string) *shard {
	return s.shards[fnv1a(key)&s.mask]
}

// Get returns the value and flags for key. The returned slice is a copy;
// callers may retain it.
func (s *Store) Get(key string) (value []byte, flags uint32, ok bool) {
	value, flags, ok = s.getInto(nil, key)
	if ok && value == nil {
		value = []byte{}
	}
	return value, flags, ok
}

// getInto appends key's value to dst under the shard lock and returns the
// extended slice; on a miss dst comes back unchanged. The server reads into
// a per-connection scratch this way instead of allocating a copy per GET.
func (s *Store) getInto(dst []byte, key string) ([]byte, uint32, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.gets++
	it, found := sh.items[key]
	if !found {
		return dst, 0, false
	}
	sh.stats.hits++
	sh.lru.MoveToFront(it.elem)
	return append(dst, it.value...), it.flags, true
}

// Set stores value under key, evicting LRU entries if needed. Neither key
// nor value is retained: a new key is copied, and a value replacing one of
// the same length is copied over it in place, so a steady stream of
// same-size overwrites allocates nothing.
func (s *Store) Set(key string, flags uint32, value []byte) error {
	sh := s.shardFor(key)
	size := int64(len(key) + len(value))
	if size > sh.cap {
		return fmt.Errorf("server: item of %d bytes exceeds shard capacity %d", size, sh.cap)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.sets++
	if it, ok := sh.items[key]; ok {
		if len(it.value) == len(value) {
			copy(it.value, value)
		} else {
			sh.bytes += int64(len(value)) - int64(len(it.value))
			it.value = bytes.Clone(value)
		}
		it.flags = flags
		sh.lru.MoveToFront(it.elem)
	} else {
		it := &item{key: strings.Clone(key), flags: flags, value: bytes.Clone(value)}
		it.elem = sh.lru.PushFront(it)
		sh.items[it.key] = it
		sh.bytes += size
	}
	for sh.bytes > sh.cap {
		oldest := sh.lru.Back()
		if oldest == nil {
			break
		}
		victim := oldest.Value.(*item)
		sh.lru.Remove(oldest)
		delete(sh.items, victim.key)
		sh.bytes -= int64(len(victim.key) + len(victim.value))
		sh.stats.evictions++
	}
	return nil
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.deletes++
	it, ok := sh.items[key]
	if !ok {
		return false
	}
	sh.lru.Remove(it.elem)
	delete(sh.items, key)
	sh.bytes -= int64(len(it.key) + len(it.value))
	return true
}

// Stats aggregates per-shard statistics.
func (s *Store) Stats() StoreStats {
	var out StoreStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		out.Items += int64(len(sh.items))
		out.Bytes += sh.bytes
		out.Gets += sh.stats.gets
		out.Hits += sh.stats.hits
		out.Sets += sh.stats.sets
		out.Deletes += sh.stats.deletes
		out.Evictions += sh.stats.evictions
		sh.mu.Unlock()
	}
	return out
}

// Len returns the total number of stored items.
func (s *Store) Len() int { return int(s.Stats().Items) }
