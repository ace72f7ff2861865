package protocol

import (
	"bufio"
	"bytes"
	"slices"
	"testing"
)

// Seed corpora: every verb, multi-get, noreply, an ST trailer, infer,
// truncated values, CR without LF and oversized counts.
var requestSeeds = []string{
	"get k\r\n",
	"get a b c\r\n",
	"get  spaced   keys \r\n",
	"get\r\n",
	"set k 3 60 5\r\nhello\r\n",
	"set k 0 0 5 noreply\r\nhello\r\n",
	"set k 0 -1 2\r\n\r\n\r\n",
	"set k +1 0 0\r\n\r\n",
	"set k 0 0 -0\r\n\r\n",
	"set k 0 0 10\r\nabc",
	"set k 0 0 3\r\nabcXY",
	"set k 4294967296 0 1\r\nx\r\n",
	"set k 0 9223372036854775808 1\r\nx\r\n",
	"set k 0 0 1048577\r\n",
	"set k 0 0 99999999999999999999\r\n",
	"delete k\r\n",
	"delete k noreply\r\n",
	"delete k other\r\n",
	"version\r\n",
	"stats\r\n",
	"stats items\r\n",
	"timing on\r\n",
	"timing off\r\n",
	"timing maybe\r\n",
	"infer 128 8\r\n",
	"infer 0 8\r\n",
	"infer 65537 1\r\n",
	"get k\r",
	"get k\rx\n",
	"get k\n",
	"\r\n",
	"   \r\n",
	"bogus\r\n",
	"",
}

var responseSeeds = []struct {
	op   Op
	data string
}{
	{OpGet, "END\r\n"},
	{OpGet, "VALUE k 3 5\r\nhello\r\nEND\r\n"},
	{OpGet, "VALUE a 1 2\r\nva\r\nVALUE c 3 2\r\nvc\r\nEND\r\n"},
	{OpGet, "VALUE k 0 5\r\nhello\r\nEND\r\nST 1 2 3 4 5 6\r\n"},
	{OpGet, "VALUE k 0 0\r\n\r\nEND\r\n"},
	{OpGet, "VALUE k 0 10\r\nabc"},
	{OpGet, "VALUE k 0 3\r\nabcXYEND\r\n"},
	{OpGet, "VALUE k 0 1048577\r\n"},
	{OpGet, "VALUE k 4294967296 1\r\nx\r\nEND\r\n"},
	{OpGet, "VALUE k 0 99999999999999999999\r\n"},
	{OpGet, "VALUE k 0\r\nEND\r\n"},
	{OpGet, "END\r"},
	{OpGet, "END\rx\n"},
	{OpSet, "STORED\r\n"},
	{OpSet, "STORED\r\nST 10 20 30 40 0 0\r\n"},
	{OpSet, "SERVER_ERROR object too large for cache\r\n"},
	{OpDelete, "DELETED\r\n"},
	{OpDelete, "NOT_FOUND\r\n"},
	{OpVersion, "VERSION treadmill-kv/1.0\r\n"},
	{OpTiming, "TIMING_ON\r\n"},
	{OpTiming, "ERROR\r\n"},
	{OpInfer, "INFER 8 1 2 3 4\r\n"},
	{OpInfer, "BUSY\r\n"},
	{OpStats, "STAT curr_items 3\r\nSTAT cmd_get 10\r\nEND\r\n"},
	{OpStats, "END\r\n"},
	{OpSet, "ST -0 +1 2 3 4 9223372036854775808\r\n"},
	{Op(99), "END\r\n"},
}

// consumed reports how many bytes of data a parse took from br.
func consumed(data []byte, br *bufio.Reader, rd *bytes.Reader) int {
	return len(data) - br.Buffered() - rd.Len()
}

func newReader(data []byte) (*bufio.Reader, *bytes.Reader) {
	rd := bytes.NewReader(data)
	return bufio.NewReaderSize(rd, 16), rd
}

func requestsEqual(a, b *Request) bool {
	return a.Op == b.Op && a.Key == b.Key && a.Flags == b.Flags && slices.Equal(a.Keys, b.Keys) &&
		a.Exptime == b.Exptime && bytes.Equal(a.Value, b.Value) && a.NoReply == b.NoReply &&
		a.TimingOn == b.TimingOn && a.InTokens == b.InTokens && a.OutTokens == b.OutTokens
}

func responsesEqual(a, b *Response) bool {
	if a.Status != b.Status || a.Key != b.Key || a.Flags != b.Flags || !bytes.Equal(a.Value, b.Value) ||
		a.Hit != b.Hit || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Key != y.Key || x.Flags != y.Flags || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}

// FuzzParseRequest holds the scanner to the reference decoder: on every
// input both fail, or both return equal requests after consuming the same
// bytes — through the allocating wrapper and through a reused Request that
// a previous decode left dirty.
func FuzzParseRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obr, ord := newReader(data)
		want, werr := oracleParseRequest(obr)
		nbr, nrd := newReader(data)
		got, gerr := ParseRequest(nbr)
		rbr, _ := newReader(data)
		reused := &Request{Op: OpSet, Key: "stale", Keys: []string{"a", "b"}, Flags: 9, Exptime: 4,
			Value: []byte("stale"), NoReply: true, TimingOn: true, InTokens: 3, OutTokens: 5}
		rerr := ParseRequestInto(rbr, reused)
		if (werr == nil) != (gerr == nil) || (werr == nil) != (rerr == nil) {
			t.Fatalf("%q: reference err %v, scanner err %v, reused err %v", data, werr, gerr, rerr)
		}
		if werr != nil {
			return
		}
		if !requestsEqual(want, got) || !requestsEqual(want, reused) {
			t.Fatalf("%q: reference %+v, scanner %+v, reused %+v", data, want, got, reused)
		}
		if a, b := consumed(data, obr, ord), consumed(data, nbr, nrd); a != b {
			t.Fatalf("%q: reference consumed %d bytes, scanner %d", data, a, b)
		}
	})
}

// FuzzParseResponse holds ParseResponse, a reused Response and the trailer
// decoder behind it to the reference decoders, and checks that the load
// plane's framing (SkipResponse) finds the same reply boundary.
func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add(uint8(s.op), []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, opByte uint8, data []byte) {
		op := Op(opByte % 8) // OpGet..OpInfer plus one unknown op
		obr, ord := newReader(data)
		want, werr := oracleParseResponse(obr, op)
		nbr, nrd := newReader(data)
		got, gerr := ParseResponse(nbr, op)
		rbr, _ := newReader(data)
		reused := &Response{Status: "stale", Key: "stale", Flags: 9, Value: []byte("stale"), Hit: true,
			Items: []Item{{Key: "stale", Value: []byte("x")}}, buf: []byte("leftover")}
		rerr := ParseResponseInto(rbr, op, reused)
		sbr, srd := newReader(data)
		serr := SkipResponse(sbr, op)
		if (werr == nil) != (gerr == nil) || (werr == nil) != (rerr == nil) || (werr == nil) != (serr == nil) {
			t.Fatalf("op %v %q: reference err %v, scanner err %v, reused err %v, skip err %v", op, data, werr, gerr, rerr, serr)
		}
		if werr != nil {
			return
		}
		if !responsesEqual(want, got) || !responsesEqual(want, reused) {
			t.Fatalf("op %v %q: reference %+v, scanner %+v, reused %+v", op, data, want, got, reused)
		}
		n := consumed(data, obr, ord)
		if m := consumed(data, nbr, nrd); m != n {
			t.Fatalf("op %v %q: reference consumed %d bytes, scanner %d", op, data, n, m)
		}
		if m := consumed(data, sbr, srd); m != n {
			t.Fatalf("op %v %q: reference consumed %d bytes, plane framing %d", op, data, n, m)
		}
		// Whatever follows is decoded as a timing trailer by both.
		wantST, werr := oracleParseServerTiming(obr)
		gotST, gerr := ParseServerTiming(nbr)
		if (werr == nil) != (gerr == nil) || (werr == nil && *wantST != *gotST) {
			t.Fatalf("op %v %q: reference trailer %+v (%v), scanner %+v (%v)", op, data, wantST, werr, gotST, gerr)
		}
	})
}
