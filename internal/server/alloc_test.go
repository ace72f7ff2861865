package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"
)

// TestServerGetAllocs guards the server's allocation footing: a GET round
// trip through serveConn reuses the connection's request and value scratch,
// so it costs at most the key string.
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
	get := []byte("get alloc-key\r\n")
	trip := func() {
		if _, err := peer.Write(get); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := br.ReadSlice('\n'); err != nil {
				t.Fatal(err)
			}
		}
	}
	trip()
	if allocs := testing.AllocsPerRun(200, trip); allocs > 1 {
		t.Errorf("GET round trip allocated %.2f objects, want <= 1", allocs)
	}
}
