package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"

	"treadmill/internal/protocol"
)

// TestServerGetAllocs guards the server's allocation footing: a round trip
// through serveConn reuses the connection's request, key and value
// scratch, and a SET of an existing key's size overwrites the value in
// place, so a GET hit, a same-size SET and a DELETE allocate nothing.
func TestServerGetAllocs(t *testing.T) {
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 256) // no newline: a hit is three reply lines
	if err := srv.Store().Set("alloc-key", 0, value); err != nil {
		t.Fatal(err)
	}
	peer, conn := net.Pipe()
	srv.wg.Add(1)
	go srv.serveConn(conn)
	defer func() {
		peer.Close()
		srv.wg.Wait()
	}()
	br := bufio.NewReader(peer)
	for _, tc := range []struct {
		name  string
		req   string
		lines int
	}{
		{"get hit", "get alloc-key\r\n", 3},
		{"same-size set", "set alloc-key 0 0 256\r\n" + string(value) + "\r\n", 1},
		{"delete", "delete no-such-key\r\n", 1},
	} {
		req := []byte(tc.req)
		trip := func() {
			if _, err := peer.Write(req); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.lines; i++ {
				if _, err := br.ReadSlice('\n'); err != nil {
					t.Fatal(err)
				}
			}
		}
		trip()
		if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
			t.Errorf("%s round trip allocated %.2f objects, want 0", tc.name, allocs)
		}
	}
}

// TestStoreKeepsParsedKeys: a key the parser decoded is a view of the
// request's scratch, which the next parse into the same Request
// overwrites; a key the store inserted must not change with it.
func TestStoreKeepsParsedKeys(t *testing.T) {
	st, err := NewStore(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(strings.NewReader("set key-a 0 0 1\r\na\r\nset key-b 0 0 1\r\nb\r\n"))
	var req protocol.Request
	for i := 0; i < 2; i++ {
		if err := protocol.ParseRequestInto(br, &req); err != nil {
			t.Fatal(err)
		}
		if err := st.Set(req.Key, 0, req.Value); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"key-a", "key-b"} {
		if v, _, ok := st.Get(k); !ok || string(v) != k[len(k)-1:] {
			t.Errorf("Get(%q) = %q, %v after the next parse", k, v, ok)
		}
	}
}
