// Package protocol implements the memcached ASCII protocol subset that the
// Treadmill TCP backend exercises: get / set / delete plus the stats and
// version commands the tools use for health checks.
//
// Framing reference: https://github.com/memcached/memcached/blob/master/doc/protocol.txt
//
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n  →  STORED\r\n
//	get <key>\r\n  →  VALUE <key> <flags> <bytes>\r\n<data>\r\nEND\r\n
//	delete <key>\r\n  →  DELETED\r\n | NOT_FOUND\r\n
//
// One scanner serves the server, the classic client and the load plane:
// lines are views into the bufio.Reader's buffer, fields split into a fixed
// array, integers parse in place, and the …Into decoders fill a value the
// caller owns and reuses. The encoders append into the bufio.Writer's free
// buffer. ParseRequest, ParseResponse and ParseServerTiming are thin
// wrappers that decode into a fresh value.
package protocol

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Op is the request operation.
type Op int

// Supported operations.
const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpVersion
	OpStats
	// OpTiming toggles the per-connection server-timing trailer (a
	// treadmill extension; see ServerTiming). "timing on" makes the server
	// append one ST line after every subsequent response on this
	// connection; "timing off" stops it. Servers that predate the
	// extension answer ERROR, which clients treat as "not supported".
	OpTiming
	// OpInfer submits a two-phase inference request (a treadmill
	// extension): "infer <in_tokens> <out_tokens>". The server runs it
	// through its iteration batcher and answers with an INFER status line
	// carrying the server-side span report (see InferTiming), BUSY when
	// the admission queue sheds it, or ERROR when inference is not
	// configured (which clients treat as "not supported").
	OpInfer
)

// String returns the wire verb.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpVersion:
		return "version"
	case OpStats:
		return "stats"
	case OpTiming:
		return "timing"
	case OpInfer:
		return "infer"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// MaxKeyLen is the protocol's key-length limit.
const MaxKeyLen = 250

// MaxGetKeys is the widest multi-get this repository issues
// (workload.MaxMultiGet).
const MaxGetKeys = 64

// MaxLineLen bounds one protocol line, CRLF included, at the longest line
// the protocol's own limits produce: a get of MaxGetKeys keys of MaxKeyLen
// bytes, about 16 KiB (the server's default read buffer). A longer line is
// ErrProtocol, so a peer that never sends a newline cannot make a reader
// buffer without limit.
const MaxLineLen = len("get") + MaxGetKeys*(1+MaxKeyLen) + len("\r\n")

// MaxValueLen bounds value sizes accepted by this implementation (1 MiB,
// memcached's default item limit).
const MaxValueLen = 1 << 20

// MaxInferTokens bounds the per-request input and output token counts of
// an infer request (a 64k-token context comfortably covers the workloads
// modeled here while keeping hostile length fields harmless).
const MaxInferTokens = 1 << 16

// maxScratch is the largest value buffer a reused Request or Response keeps
// between decodes: one heavy-tail value must not stay pinned per connection.
const maxScratch = 64 << 10

// ErrProtocol reports malformed input from the peer.
var ErrProtocol = errors.New("protocol error")

// The scanner's errors are preallocated so failing input costs no
// allocation either.
var (
	errLineTooLong  = fmt.Errorf("%w: line longer than %d bytes", ErrProtocol, MaxLineLen)
	errNoCRLF       = fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	errEmpty        = fmt.Errorf("%w: empty command", ErrProtocol)
	errBadKey       = fmt.Errorf("%w: invalid key", ErrProtocol)
	errArity        = fmt.Errorf("%w: wrong number of arguments", ErrProtocol)
	errBadNumber    = fmt.Errorf("%w: bad numeric field", ErrProtocol)
	errBadCount     = fmt.Errorf("%w: bad byte count", ErrProtocol)
	errBadNoreply   = fmt.Errorf("%w: unexpected argument (want noreply)", ErrProtocol)
	errBadTiming    = fmt.Errorf("%w: timing wants on|off", ErrProtocol)
	errBadTokens    = fmt.Errorf("%w: infer tokens out of [1,%d]", ErrProtocol, MaxInferTokens)
	errUnknownVerb  = fmt.Errorf("%w: unknown command", ErrProtocol)
	errShortValue   = fmt.Errorf("%w: short value", ErrProtocol)
	errValueCRLF    = fmt.Errorf("%w: value not CRLF-terminated", ErrProtocol)
	errBadGetReply  = fmt.Errorf("%w: bad get response", ErrProtocol)
	errBadTrailer   = fmt.Errorf("%w: bad timing trailer", ErrProtocol)
	errUnknownReply = fmt.Errorf("%w: unknown op", ErrProtocol)
)

// Request is one parsed client request.
type Request struct {
	Op    Op
	Key   string
	Flags uint32
	// Keys holds the key list of a multi-key get ("get k1 k2 ...").
	// When set, Key is Keys[0]. Single-key requests may leave it empty.
	Keys []string
	// Exptime is the raw expiration field (this implementation stores it
	// but does not expire).
	Exptime int64
	Value   []byte
	// NoReply suppresses the response for set/delete.
	NoReply bool
	// TimingOn selects the level of an OpTiming request ("timing on" when
	// true, "timing off" when false).
	TimingOn bool
	// InTokens and OutTokens are the prompt and generation lengths of an
	// OpInfer request, both in [1, MaxInferTokens].
	InTokens, OutTokens int

	// keyBuf backs the keys ParseRequestInto decodes, reused by the next
	// decode into this Request.
	keyBuf []byte
}

// AllKeys returns the request's key set: Keys when present, else [Key].
func (r *Request) AllKeys() []string {
	if len(r.Keys) > 0 {
		return r.Keys
	}
	return []string{r.Key}
}

// Item is one returned value of a (multi-)get.
type Item struct {
	Key   string
	Flags uint32
	Value []byte
}

// Response is one server reply.
type Response struct {
	// Status is the response line ("STORED", "DELETED", "NOT_FOUND",
	// "END", "VERSION <v>", ...). For hits it is "VALUE".
	Status string
	Key    string
	Flags  uint32
	Value  []byte
	// Items holds every returned value of a (multi-)get; for a single-key
	// hit it has one element mirrored into Key/Flags/Value.
	Items []Item
	// Hit reports whether a get found at least one key.
	Hit bool

	// buf backs Key, Value and the items' keys and values (the stats body
	// too), reused by the next ParseResponseInto on this Response.
	buf []byte
}

// Clone returns a copy of r that shares no storage with it: the way to keep
// a Response that ParseResponseInto will overwrite. Clone of nil is nil.
func (r *Response) Clone() *Response {
	if r == nil {
		return nil
	}
	cp := &Response{Status: r.Status, Key: strings.Clone(r.Key), Flags: r.Flags, Hit: r.Hit, Value: bytes.Clone(r.Value)}
	if r.Items != nil {
		cp.Items = make([]Item, len(r.Items))
		for i, it := range r.Items {
			it.Key, it.Value = strings.Clone(it.Key), bytes.Clone(it.Value)
			cp.Items[i] = it
		}
	}
	return cp
}

// appendKey copies key to the end of *buf and returns the copy as a string
// that shares *buf's storage: a decoded key costs no allocation once the
// scratch has grown. The string stays intact while *buf is appended to (a
// regrown buffer leaves the old array to it) and is overwritten by the next
// decode that reuses *buf, so its owner must copy it to keep it
// (strings.Clone).
func appendKey(buf *[]byte, key []byte) string {
	off := len(*buf)
	*buf = append(*buf, key...)
	return unsafe.String(unsafe.SliceData((*buf)[off:]), len(key))
}

func validTokens(n int) bool { return n >= 1 && n <= MaxInferTokens }

func validKey[K string | []byte](key K) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// --- encoding -------------------------------------------------------------

// lineBuf returns w's free buffer for an in-place append of up to n bytes,
// flushing first when the buffer has less room than that (as w.Write would
// when it fills), so encoders format without allocating.
func lineBuf(w *bufio.Writer, n int) ([]byte, error) {
	if w.Available() < n {
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	return w.AvailableBuffer(), nil
}

// maxUintLen is the widest decimal field the encoders append (an int64).
const maxUintLen = 20

func appendNoReply(b []byte, noreply bool) []byte {
	if noreply {
		b = append(b, " noreply"...)
	}
	return append(b, '\r', '\n')
}

// ValidateRequest reports whether req can be encoded: a known op, valid
// keys (1..MaxKeyLen bytes, no control bytes or spaces), a value within
// MaxValueLen and infer tokens within [1, MaxInferTokens]. WriteRequest
// applies it before writing a byte; a client calls it before committing a
// connection to the request.
func ValidateRequest(req *Request) error {
	switch req.Op {
	case OpGet:
		if len(req.Keys) == 0 && !validKey(req.Key) {
			return fmt.Errorf("%w: invalid key %q", ErrProtocol, req.Key)
		}
		for _, k := range req.Keys {
			if !validKey(k) {
				return fmt.Errorf("%w: invalid key %q", ErrProtocol, k)
			}
		}
	case OpSet, OpDelete:
		if !validKey(req.Key) {
			return fmt.Errorf("%w: invalid key %q", ErrProtocol, req.Key)
		}
		if req.Op == OpSet && len(req.Value) > MaxValueLen {
			return fmt.Errorf("%w: value too large (%d bytes)", ErrProtocol, len(req.Value))
		}
	case OpInfer:
		if !validTokens(req.InTokens) || !validTokens(req.OutTokens) {
			return fmt.Errorf("%w: infer tokens out of [1,%d]: in=%d out=%d",
				ErrProtocol, MaxInferTokens, req.InTokens, req.OutTokens)
		}
	case OpVersion, OpStats, OpTiming:
	default:
		return fmt.Errorf("%w: unknown op %v", ErrProtocol, req.Op)
	}
	return nil
}

// WriteRequest validates req (see ValidateRequest) and encodes it to w.
func WriteRequest(w *bufio.Writer, req *Request) error {
	if err := ValidateRequest(req); err != nil {
		return err
	}
	switch req.Op {
	case OpGet:
		keys := req.Keys
		if len(keys) == 0 {
			single := [1]string{req.Key}
			keys = single[:]
		}
		n := len("get\r\n")
		for _, k := range keys {
			n += 1 + len(k)
		}
		b, err := lineBuf(w, n)
		if err != nil {
			return err
		}
		b = append(b, "get"...)
		for _, k := range keys {
			b = append(b, ' ')
			b = append(b, k...)
		}
		b = append(b, '\r', '\n')
		_, err = w.Write(b)
		return err
	case OpSet:
		b, err := lineBuf(w, len("set  noreply\r\n")+len(req.Key)+3*(1+maxUintLen))
		if err != nil {
			return err
		}
		b = append(b, "set "...)
		b = append(b, req.Key...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(req.Flags), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, req.Exptime, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(len(req.Value)), 10)
		b = appendNoReply(b, req.NoReply)
		if _, err := w.Write(b); err != nil {
			return err
		}
		if _, err := w.Write(req.Value); err != nil {
			return err
		}
		_, err = w.WriteString("\r\n")
		return err
	case OpDelete:
		b, err := lineBuf(w, len("delete  noreply\r\n")+len(req.Key))
		if err != nil {
			return err
		}
		b = append(b, "delete "...)
		b = append(b, req.Key...)
		b = appendNoReply(b, req.NoReply)
		_, err = w.Write(b)
		return err
	case OpVersion:
		_, err := w.WriteString("version\r\n")
		return err
	case OpStats:
		_, err := w.WriteString("stats\r\n")
		return err
	case OpTiming:
		if req.TimingOn {
			_, err := w.WriteString("timing on\r\n")
			return err
		}
		_, err := w.WriteString("timing off\r\n")
		return err
	case OpInfer:
		b, err := lineBuf(w, len("infer  \r\n")+2*maxUintLen)
		if err != nil {
			return err
		}
		b = append(b, "infer "...)
		b = strconv.AppendInt(b, int64(req.InTokens), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(req.OutTokens), 10)
		b = append(b, '\r', '\n')
		_, err = w.Write(b)
		return err
	}
	return nil
}

// writeValue writes one "VALUE <key> <flags> <bytes>" block.
func writeValue(w *bufio.Writer, key string, flags uint32, value []byte) error {
	b, err := lineBuf(w, len("VALUE   \r\n")+len(key)+2*maxUintLen)
	if err != nil {
		return err
	}
	b = append(b, "VALUE "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(value)), 10)
	b = append(b, '\r', '\n')
	if _, err := w.Write(b); err != nil {
		return err
	}
	if _, err := w.Write(value); err != nil {
		return err
	}
	_, err = w.WriteString("\r\n")
	return err
}

// WriteGetResponse writes a hit or miss reply for a get.
func WriteGetResponse(w *bufio.Writer, key string, flags uint32, value []byte, hit bool) error {
	if hit {
		if err := writeValue(w, key, flags, value); err != nil {
			return err
		}
	}
	_, err := w.WriteString("END\r\n")
	return err
}

// WriteItemsResponse writes a multi-get reply: a VALUE block per item,
// then END.
func WriteItemsResponse(w *bufio.Writer, items []Item) error {
	for _, it := range items {
		if err := writeValue(w, it.Key, it.Flags, it.Value); err != nil {
			return err
		}
	}
	_, err := w.WriteString("END\r\n")
	return err
}

// WriteStatusResponse writes a bare status line such as STORED.
func WriteStatusResponse(w *bufio.Writer, status string) error {
	if _, err := w.WriteString(status); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

// --- scanning -------------------------------------------------------------

// readLine returns the next CRLF-terminated line without its terminator.
// The line is a view into r's buffer, valid until the next read from r; only
// a line longer than that buffer is accumulated into a copy. A line longer
// than MaxLineLen is ErrProtocol. io.EOF at a line boundary is returned
// unchanged.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull && len(line) <= MaxLineLen {
		// One allocation holds any line up to the bound plus the last read.
		long := append(make([]byte, 0, MaxLineLen+r.Size()), line...)
		for err == bufio.ErrBufferFull && len(long) <= MaxLineLen {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > MaxLineLen {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errNoCRLF
	}
	return line[:len(line)-2], nil
}

// nextField returns the first space-separated field of line and what
// follows it; field is nil when none is left. Only 0x20 separates: other
// bytes a key may legally hold (U+0085, U+00A0, ...) are not delimiters.
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && line[i] == ' ' {
		i++
	}
	j := i
	for j < len(line) && line[j] != ' ' {
		j++
	}
	if i == j {
		return nil, nil
	}
	return line[i:j], line[j:]
}

// maxFields is the widest fixed-arity line: the ST trailer's seven fields.
const maxFields = 7

// splitFields splits line into f and returns how many fields it has, which
// may exceed maxFields: only the first maxFields are stored, and any count
// above the arity a caller checks for is an arity error anyway.
func splitFields(line []byte, f *[maxFields][]byte) int {
	n := 0
	for {
		field, rest := nextField(line)
		if field == nil {
			return n
		}
		if n < maxFields {
			f[n] = field
		}
		n++
		line = rest
	}
}

// parseUint parses b as a base-10 integer in [0, max] in place: digits
// only, as strconv.ParseUint takes them.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseInt parses b as strconv.ParseInt(string(b), 10, 64) does (an
// optional sign, then digits, in int64 range), in place.
func parseInt(b []byte) (int64, bool) {
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		if b[0] == '-' {
			v, ok := parseUint(b[1:], 1<<63)
			return -int64(v), ok
		}
		b = b[1:]
	}
	v, ok := parseUint(b, math.MaxInt64)
	return int64(v), ok
}

// parseLen parses a <bytes> field: a value length in [0, MaxValueLen].
func parseLen(b []byte) (int, bool) {
	n, ok := parseInt(b)
	return int(n), ok && n >= 0 && n <= MaxValueLen
}

// recycle empties buf for reuse, dropping it when an outlier grew it past
// maxScratch.
func recycle(buf []byte) []byte {
	if cap(buf) > maxScratch {
		return nil
	}
	return buf[:0]
}

// appendData reads an n-byte data block and its CRLF from r, appending the
// n bytes to dst.
func appendData(r *bufio.Reader, dst []byte, n int) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, n+2)[:off+n+2]
	if _, err := io.ReadFull(r, dst[off:]); err != nil {
		return nil, errShortValue
	}
	if dst[off+n] != '\r' || dst[off+n+1] != '\n' {
		return nil, errValueCRLF
	}
	return dst[:off+n], nil
}

// skipData consumes an n-byte data block and its CRLF without copying it.
func skipData(r *bufio.Reader, n int) error {
	if _, err := r.Discard(n); err != nil {
		return errShortValue
	}
	crlf, err := r.Peek(2)
	if err != nil {
		return errShortValue
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return errValueCRLF
	}
	_, err = r.Discard(2)
	return err
}

// ParseRequest reads one request from r. io.EOF is returned unchanged on a
// clean connection close between requests.
func ParseRequest(r *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := ParseRequestInto(r, req); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseRequestInto reads one request from r into req, which the caller owns
// and may reuse: every field is overwritten, and req's key, Keys and Value
// storage is recycled, so the Key, Keys and Value the previous call left
// in req are valid only until this one. Whoever keeps a key past that
// copies it (strings.Clone). io.EOF is returned unchanged on a clean
// connection close between requests.
func ParseRequestInto(r *bufio.Reader, req *Request) error {
	line, err := readLine(r)
	if err != nil {
		return err
	}
	*req = Request{Keys: req.Keys[:0], Value: recycle(req.Value), keyBuf: req.keyBuf[:0]}
	verb, rest := nextField(line)
	switch string(verb) {
	case "":
		return errEmpty
	case "get":
		key, rest := nextField(rest)
		if !validKey(key) {
			return errBadKey
		}
		req.Op = OpGet
		req.Key = appendKey(&req.keyBuf, key)
		for {
			if key, rest = nextField(rest); key == nil {
				return nil
			}
			if !validKey(key) {
				return errBadKey
			}
			if len(req.Keys) == 0 {
				req.Keys = append(req.Keys, req.Key)
			}
			req.Keys = append(req.Keys, appendKey(&req.keyBuf, key))
		}
	case "version":
		req.Op = OpVersion
		return nil
	case "stats":
		req.Op = OpStats
		return nil
	}
	var f [maxFields][]byte
	n := splitFields(line, &f)
	switch string(verb) {
	case "set":
		if n != 5 && n != 6 {
			return errArity
		}
		if !validKey(f[1]) {
			return errBadKey
		}
		flags, ok := parseUint(f[2], math.MaxUint32)
		if !ok {
			return errBadNumber
		}
		exp, ok := parseInt(f[3])
		if !ok {
			return errBadNumber
		}
		size, ok := parseLen(f[4])
		if !ok {
			return errBadCount
		}
		if n == 6 && string(f[5]) != "noreply" {
			return errBadNoreply
		}
		req.Op, req.Flags, req.Exptime, req.NoReply = OpSet, uint32(flags), exp, n == 6
		// The key is copied out before the data read moves r's buffer.
		req.Key = appendKey(&req.keyBuf, f[1])
		req.Value, err = appendData(r, req.Value, size)
		return err
	case "delete":
		if n != 2 && n != 3 {
			return errArity
		}
		if !validKey(f[1]) {
			return errBadKey
		}
		if n == 3 && string(f[2]) != "noreply" {
			return errBadNoreply
		}
		req.Op, req.Key, req.NoReply = OpDelete, appendKey(&req.keyBuf, f[1]), n == 3
		return nil
	case "timing":
		if n != 2 {
			return errBadTiming
		}
		switch string(f[1]) {
		case "on":
			req.TimingOn = true
		case "off":
		default:
			return errBadTiming
		}
		req.Op = OpTiming
		return nil
	case "infer":
		if n != 3 {
			return errArity
		}
		in, okIn := parseInt(f[1])
		out, okOut := parseInt(f[2])
		if !okIn || !okOut || in < 1 || in > MaxInferTokens || out < 1 || out > MaxInferTokens {
			return errBadTokens
		}
		req.Op, req.InTokens, req.OutTokens = OpInfer, int(in), int(out)
		return nil
	default:
		return errUnknownVerb
	}
}

// commonStatus are the status lines decoding shares instead of copying.
var commonStatus = [...]string{"STORED", "NOT_STORED", "DELETED", "NOT_FOUND", "END", "ERROR", "TIMING_ON", "TIMING_OFF", "BUSY"}

func statusString(line []byte) string {
	for _, s := range commonStatus {
		if string(line) == s {
			return s
		}
	}
	return string(line)
}

// ParseResponse reads one response to the given op from r.
func ParseResponse(r *bufio.Reader, op Op) (*Response, error) {
	resp := new(Response)
	if err := ParseResponseInto(r, op, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// ParseResponseInto reads one response to op from r into resp, which the
// caller owns and may reuse: every field is overwritten, and the storage
// behind Items, the keys and the values is recycled, so what the previous
// call left in resp is valid only until this one (Clone keeps it). Status
// is an ordinary string.
func ParseResponseInto(r *bufio.Reader, op Op, resp *Response) error {
	*resp = Response{Items: resp.Items[:0], buf: recycle(resp.buf)}
	return scanResponse(r, op, resp)
}

// SkipResponse consumes one response to op from r without decoding it: the
// same framing as ParseResponseInto, with no allocation. It is what the load
// plane's reader completes requests with.
func SkipResponse(r *bufio.Reader, op Op) error {
	return scanResponse(r, op, nil)
}

// scanResponse frames one response to op, decoding into resp unless it is
// nil.
func scanResponse(r *bufio.Reader, op Op, resp *Response) error {
	switch op {
	case OpGet:
		for {
			line, err := readLine(r)
			if err != nil {
				return err
			}
			if string(line) == "END" {
				break
			}
			var f [maxFields][]byte
			if splitFields(line, &f) != 4 || string(f[0]) != "VALUE" {
				return errBadGetReply
			}
			flags, ok := parseUint(f[2], math.MaxUint32)
			if !ok {
				return errBadNumber
			}
			n, ok := parseLen(f[3])
			if !ok {
				return errBadCount
			}
			if resp == nil {
				if err := skipData(r, n); err != nil {
					return err
				}
				continue
			}
			key := appendKey(&resp.buf, f[1])
			off := len(resp.buf)
			if resp.buf, err = appendData(r, resp.buf, n); err != nil {
				return err
			}
			resp.Items = append(resp.Items, Item{Key: key, Flags: uint32(flags), Value: resp.buf[off : off+n : off+n]})
		}
		if resp == nil {
			return nil
		}
		if len(resp.Items) == 0 {
			resp.Status = "END"
			return nil
		}
		first := resp.Items[0]
		resp.Status, resp.Key, resp.Flags, resp.Value, resp.Hit = "VALUE", first.Key, first.Flags, first.Value, true
		return nil
	case OpSet, OpDelete, OpVersion, OpTiming, OpInfer:
		line, err := readLine(r)
		if err != nil {
			return err
		}
		if resp != nil {
			resp.Status = statusString(line)
		}
		return nil
	case OpStats:
		for {
			line, err := readLine(r)
			if err != nil {
				return err
			}
			if string(line) == "END" {
				break
			}
			if resp != nil {
				resp.buf = append(append(resp.buf, line...), '\n')
			}
		}
		if resp != nil {
			resp.Status, resp.Value = "END", resp.buf
		}
		return nil
	default:
		return errUnknownReply
	}
}

// ServerTiming is the per-request server-side span report carried by the
// timing trailer (see OpTiming): wall-clock nanoseconds the server spent in
// each handling stage, plus the runtime-derived GC-pause and scheduler-
// latency attribution for the request's residence window. All fields are
// non-negative; a server without a runtime probe reports zero GC/Sched.
type ServerTiming struct {
	// ParseNs is first request byte → request fully parsed.
	ParseNs int64
	// StoreNs is the store operation (get/set/delete execution).
	StoreNs int64
	// SerializeNs is response encoding into the write buffer.
	SerializeNs int64
	// WriteNs is the response flush (write syscall return).
	WriteNs int64
	// GCNs is stop-the-world GC pause time overlapping the residence
	// window, from windowed /gc/pauses:seconds deltas.
	GCNs int64
	// SchedNs is estimated scheduler run-queue wait for this request's
	// goroutine wakeups, from windowed /sched/latencies:seconds deltas.
	SchedNs int64
}

// WallNs returns the server-observed wall-clock residence:
// parse+store+serialize+write. GC and scheduler time overlap these spans
// (they inflate them) rather than adding to them.
func (t *ServerTiming) WallNs() int64 {
	return t.ParseNs + t.StoreNs + t.SerializeNs + t.WriteNs
}

// fields returns the trailer's six spans in wire order.
func (t *ServerTiming) fields() [6]*int64 {
	return [...]*int64{&t.ParseNs, &t.StoreNs, &t.SerializeNs, &t.WriteNs, &t.GCNs, &t.SchedNs}
}

// WriteServerTiming writes the trailer line: ST <parse> <store> <serialize>
// <write> <gc> <sched>, all base-10 nanoseconds.
func WriteServerTiming(w *bufio.Writer, t *ServerTiming) error {
	b, err := lineBuf(w, len("ST\r\n")+6*(1+maxUintLen))
	if err != nil {
		return err
	}
	b = append(b, "ST"...)
	for _, v := range t.fields() {
		b = append(b, ' ')
		b = strconv.AppendInt(b, *v, 10)
	}
	b = append(b, '\r', '\n')
	_, err = w.Write(b)
	return err
}

// InferTiming is the server-side span report an infer response carries in
// its status line: "INFER <out_tokens> <queue> <prefill> <decode> <batch>",
// spans in base-10 nanoseconds. queue+prefill+decode+batch is the server
// residence inside the batcher, so the client can rebuild an exact anatomy
// decomposition (the remainder up to RTT is wire+client time).
type InferTiming struct {
	// OutTokens is the number of generated tokens.
	OutTokens int
	// QueueNs is admission-queue wait before joining a batch.
	QueueNs int64
	// PrefillNs is the request's own prefill compute.
	PrefillNs int64
	// DecodeNs is the request's own decode compute.
	DecodeNs int64
	// BatchNs is batch co-scheduling excess (other requests' tokens plus
	// iteration overhead in shared iterations).
	BatchNs int64
}

// ResidenceNs is the request's total residence in the inference batcher.
func (t *InferTiming) ResidenceNs() int64 {
	return t.QueueNs + t.PrefillNs + t.DecodeNs + t.BatchNs
}

// FormatInferStatus renders the INFER status line (without CRLF).
func FormatInferStatus(t *InferTiming) string {
	return fmt.Sprintf("INFER %d %d %d %d %d", t.OutTokens, t.QueueNs, t.PrefillNs, t.DecodeNs, t.BatchNs)
}

// ParseInferStatus decodes an INFER status line produced by
// FormatInferStatus. Status lines that are not INFER (BUSY, ERROR) return
// an ErrProtocol-wrapped error; callers distinguish shed/unsupported by
// inspecting the status themselves.
func ParseInferStatus(status string) (*InferTiming, error) {
	var f [maxFields][]byte
	if splitFields([]byte(status), &f) != 6 || string(f[0]) != "INFER" {
		return nil, fmt.Errorf("%w: bad infer status %q", ErrProtocol, status)
	}
	var t InferTiming
	tokens, ok := parseInt(f[1])
	if !ok || tokens < 0 {
		return nil, fmt.Errorf("%w: bad infer token count %q", ErrProtocol, f[1])
	}
	t.OutTokens = int(tokens)
	for i, dst := range []*int64{&t.QueueNs, &t.PrefillNs, &t.DecodeNs, &t.BatchNs} {
		v, ok := parseInt(f[i+2])
		if !ok || v < 0 {
			return nil, fmt.Errorf("%w: bad infer span %q", ErrProtocol, f[i+2])
		}
		*dst = v
	}
	return &t, nil
}

// ParseServerTiming reads one ST trailer line.
func ParseServerTiming(r *bufio.Reader) (*ServerTiming, error) {
	t := new(ServerTiming)
	if err := ParseServerTimingInto(r, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseServerTimingInto reads one ST trailer line into t without
// allocating.
func ParseServerTimingInto(r *bufio.Reader, t *ServerTiming) error {
	line, err := readLine(r)
	if err != nil {
		return err
	}
	var f [maxFields][]byte
	if splitFields(line, &f) != 7 || string(f[0]) != "ST" {
		return errBadTrailer
	}
	for i, dst := range t.fields() {
		v, ok := parseInt(f[i+1])
		if !ok || v < 0 {
			return errBadTrailer
		}
		*dst = v
	}
	return nil
}
