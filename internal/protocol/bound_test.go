package protocol_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"treadmill/internal/client"
	"treadmill/internal/protocol"
	"treadmill/internal/router"
	"treadmill/internal/server"
)

// TestMaxLineLen: a peer that never sends a newline costs a reader a bounded
// buffer and an ErrProtocol, while the longest line the repository itself
// emits — a MaxGetKeys-key get of MaxKeyLen-byte keys — still parses end to
// end through the server and through the router.
func TestMaxLineLen(t *testing.T) {
	hostile := bufio.NewReader(bytes.NewReader(bytes.Repeat([]byte{'g'}, 1<<20)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := protocol.ParseRequest(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, protocol.ErrProtocol) {
		t.Fatalf("1 MiB line without newline: err = %v, want ErrProtocol", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("1 MiB line without newline allocated %d bytes, want < 64 KiB", got)
	}

	keys := make([]string, protocol.MaxGetKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%03d-%s", i, strings.Repeat("k", protocol.MaxKeyLen-4))
	}
	if line := "get " + strings.Join(keys, " ") + "\r\n"; len(line) != protocol.MaxLineLen {
		t.Fatalf("widest get is %d bytes, MaxLineLen %d", len(line), protocol.MaxLineLen)
	}
	srv, err := server.New(server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rt, err := router.New(router.DefaultConfig([]string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, target := range []struct{ name, addr string }{{"server", srv.Addr()}, {"router", rt.Addr()}} {
		c, err := client.Dial(target.addr, client.DefaultConnConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := c.Set(k, 0, []byte("v-"+k[:3])); err != nil {
				t.Fatalf("%s: set: %v", target.name, err)
			}
		}
		done := make(chan *protocol.Response, 1)
		if err := c.Do(&protocol.Request{Op: protocol.OpGet, Key: keys[0], Keys: keys}, func(r *client.Result) {
			if r.Err != nil {
				t.Errorf("%s: multi-get: %v", target.name, r.Err)
				done <- nil
				return
			}
			done <- r.Resp.Clone()
		}); err != nil {
			t.Fatalf("%s: %v", target.name, err)
		}
		resp := <-done
		c.Close()
		if resp == nil {
			continue
		}
		if len(resp.Items) != len(keys) {
			t.Fatalf("%s: %d items for a %d-key get", target.name, len(resp.Items), len(keys))
		}
		for i, it := range resp.Items {
			if it.Key != keys[i] || string(it.Value) != "v-"+keys[i][:3] {
				t.Errorf("%s: item %d = %q/%q", target.name, i, it.Key, it.Value)
			}
		}
	}
}
