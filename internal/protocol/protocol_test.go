package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatalf("parse %q: %v", buf.String(), err)
	}
	return got
}

func TestRequestRoundTripGet(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpGet, Key: "foo"})
	if got.Op != OpGet || got.Key != "foo" {
		t.Errorf("got %+v", got)
	}
}

func TestRequestRoundTripSet(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpSet, Key: "k1", Flags: 7, Exptime: 60, Value: []byte("hello\r\nworld")})
	if got.Op != OpSet || got.Key != "k1" || got.Flags != 7 || got.Exptime != 60 {
		t.Errorf("got %+v", got)
	}
	if !bytes.Equal(got.Value, []byte("hello\r\nworld")) {
		t.Errorf("value = %q (binary-safe framing broken)", got.Value)
	}
	if got.NoReply {
		t.Error("noreply should be false")
	}
}

func TestRequestRoundTripSetNoreply(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpSet, Key: "k", Value: []byte("v"), NoReply: true})
	if !got.NoReply {
		t.Error("noreply lost")
	}
}

func TestRequestRoundTripDelete(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpDelete, Key: "gone", NoReply: true})
	if got.Op != OpDelete || got.Key != "gone" || !got.NoReply {
		t.Errorf("got %+v", got)
	}
}

func TestRequestRoundTripVersionStats(t *testing.T) {
	if got := roundTripRequest(t, &Request{Op: OpVersion}); got.Op != OpVersion {
		t.Errorf("got %+v", got)
	}
	if got := roundTripRequest(t, &Request{Op: OpStats}); got.Op != OpStats {
		t.Errorf("got %+v", got)
	}
}

func TestWriteRequestRejectsBadKeys(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for _, key := range []string{"", "has space", "ctrl\x01char", strings.Repeat("x", MaxKeyLen+1)} {
		if err := WriteRequest(w, &Request{Op: OpGet, Key: key}); !errors.Is(err, ErrProtocol) {
			t.Errorf("key %q: err = %v, want ErrProtocol", key, err)
		}
	}
}

func TestWriteRequestRejectsHugeValue(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := WriteRequest(w, &Request{Op: OpSet, Key: "k", Value: make([]byte, MaxValueLen+1)})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestParseRequestMalformed(t *testing.T) {
	cases := []string{
		"bogus foo\r\n",
		"get\r\n",
		"get no\tspace\r\n",
		"set k 0 0\r\n",
		"set k x 0 3\r\nabc\r\n",
		"set k 0 x 3\r\nabc\r\n",
		"set k 0 0 -1\r\n",
		"set k 0 0 3 whatever\r\nabc\r\n",
		"set k 0 0 3\r\nabXY", // bad terminator
		"delete\r\n",
		"delete k extra\r\n",
		"\r\n",
		"get nocrlf\n",
	}
	for _, c := range cases {
		_, err := ParseRequest(bufio.NewReader(strings.NewReader(c)))
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("input %q: err = %v, want ErrProtocol", c, err)
		}
	}
}

func TestParseRequestEOF(t *testing.T) {
	_, err := ParseRequest(bufio.NewReader(strings.NewReader("")))
	if err != io.EOF {
		t.Errorf("err = %v, want io.EOF", err)
	}
}

func TestParseRequestTruncatedValue(t *testing.T) {
	_, err := ParseRequest(bufio.NewReader(strings.NewReader("set k 0 0 10\r\nabc")))
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestGetResponseRoundTripHit(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteGetResponse(w, "k", 3, []byte("binary\r\nsafe"), true); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	resp, err := ParseResponse(bufio.NewReader(&buf), OpGet)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit || resp.Key != "k" || resp.Flags != 3 || !bytes.Equal(resp.Value, []byte("binary\r\nsafe")) {
		t.Errorf("resp = %+v", resp)
	}
}

// TestCloneSurvivesReuse: a decoded key and value share the Response's
// scratch, which the next ParseResponseInto overwrites; Clone must copy
// both.
func TestCloneSurvivesReuse(t *testing.T) {
	br := bufio.NewReader(strings.NewReader(
		"VALUE key-a 1 3\r\naaa\r\nEND\r\nVALUE key-b 2 3\r\nbbb\r\nEND\r\n"))
	var resp Response
	if err := ParseResponseInto(br, OpGet, &resp); err != nil {
		t.Fatal(err)
	}
	kept := resp.Clone()
	if err := ParseResponseInto(br, OpGet, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != "key-b" {
		t.Fatalf("second parse key = %q", resp.Key)
	}
	if kept.Key != "key-a" || string(kept.Value) != "aaa" || kept.Flags != 1 ||
		kept.Items[0].Key != "key-a" || string(kept.Items[0].Value) != "aaa" {
		t.Errorf("clone changed with the next parse: %+v", kept)
	}
}

func TestGetResponseRoundTripMiss(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteGetResponse(w, "k", 0, nil, false); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	resp, err := ParseResponse(bufio.NewReader(&buf), OpGet)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hit || resp.Status != "END" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestStatusResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteStatusResponse(w, "STORED"); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	resp, err := ParseResponse(bufio.NewReader(&buf), OpSet)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "STORED" {
		t.Errorf("status = %q", resp.Status)
	}
}

func TestStatsResponseParsing(t *testing.T) {
	in := "STAT curr_items 3\r\nSTAT cmd_get 10\r\nEND\r\n"
	resp, err := ParseResponse(bufio.NewReader(strings.NewReader(in)), OpStats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp.Value), "curr_items 3") {
		t.Errorf("stats body = %q", resp.Value)
	}
}

func TestParseResponseMalformed(t *testing.T) {
	cases := []string{
		"NOPE k 0 3\r\nabc\r\nEND\r\n",
		"VALUE k x 3\r\nabc\r\nEND\r\n",
		"VALUE k 0 -1\r\n",
		"VALUE k 0 3\r\nabc\r\nNOTEND\r\n",
		"VALUE k 0 3\r\nabXX",
	}
	for _, c := range cases {
		_, err := ParseResponse(bufio.NewReader(strings.NewReader(c)), OpGet)
		if err == nil {
			t.Errorf("input %q parsed without error", c)
		}
	}
}

func TestPipelinedRequests(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := WriteRequest(w, &Request{Op: OpGet, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&buf)
	for i := 0; i < 3; i++ {
		if _, err := ParseRequest(r); err != nil {
			t.Fatalf("pipelined request %d: %v", i, err)
		}
	}
	if _, err := ParseRequest(r); err != io.EOF {
		t.Errorf("after pipeline: err = %v, want EOF", err)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpGet: "get", OpSet: "set", OpDelete: "delete", OpVersion: "version", OpStats: "stats"} {
		if op.String() != want {
			t.Errorf("%v", op)
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op should render")
	}
}

// Property: any ASCII-printable key and arbitrary binary value survive a
// set round trip.
func TestSetRoundTripProperty(t *testing.T) {
	f := func(keyBytes []byte, value []byte) bool {
		key := make([]byte, 0, len(keyBytes))
		for _, b := range keyBytes {
			if b > ' ' && b != 0x7f {
				key = append(key, b)
			}
		}
		if len(key) == 0 || len(key) > MaxKeyLen {
			return true
		}
		if len(value) > MaxValueLen {
			return true
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		req := &Request{Op: OpSet, Key: string(key), Value: value}
		if err := WriteRequest(w, req); err != nil {
			return false
		}
		w.Flush()
		got, err := ParseRequest(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		return got.Key == req.Key && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMultiGetRequestRoundTrip(t *testing.T) {
	got := roundTripRequest(t, &Request{Op: OpGet, Keys: []string{"a", "b", "c"}})
	if got.Op != OpGet || len(got.Keys) != 3 || got.Keys[1] != "b" || got.Key != "a" {
		t.Errorf("got %+v", got)
	}
	// AllKeys covers both forms.
	single := &Request{Op: OpGet, Key: "x"}
	if ks := single.AllKeys(); len(ks) != 1 || ks[0] != "x" {
		t.Errorf("AllKeys single = %v", ks)
	}
}

func TestMultiGetRequestBadKey(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := WriteRequest(w, &Request{Op: OpGet, Keys: []string{"ok", "bad key"}})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v", err)
	}
}

func TestMultiGetResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	items := []Item{
		{Key: "a", Flags: 1, Value: []byte("va")},
		{Key: "c", Flags: 3, Value: []byte("vc\r\nbinary")},
	}
	if err := WriteItemsResponse(w, items); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	resp, err := ParseResponse(bufio.NewReader(&buf), OpGet)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Hit || len(resp.Items) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Items[1].Key != "c" || !bytes.Equal(resp.Items[1].Value, []byte("vc\r\nbinary")) {
		t.Errorf("item 1 = %+v", resp.Items[1])
	}
	// Legacy single-key fields mirror the first item.
	if resp.Key != "a" || resp.Flags != 1 || !bytes.Equal(resp.Value, []byte("va")) {
		t.Errorf("legacy fields = %q/%d/%q", resp.Key, resp.Flags, resp.Value)
	}
}

func TestMultiGetResponseAllMisses(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := WriteItemsResponse(w, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	resp, err := ParseResponse(bufio.NewReader(&buf), OpGet)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Hit || len(resp.Items) != 0 {
		t.Errorf("resp = %+v", resp)
	}
}
