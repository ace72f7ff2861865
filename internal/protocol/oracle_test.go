package protocol

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// The reference decoders: the straightforward allocating parsers this
// package shipped before its in-place scanner, kept verbatim as the oracle
// the fuzz targets hold the scanner to (same values, or both an error). Only
// their line reader is bounded by MaxLineLen, the one deliberate change.

func oracleSplitFields(line []byte) [][]byte {
	var out [][]byte
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if start >= 0 {
				out = append(out, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

func oracleReadLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) > MaxLineLen {
		return nil, fmt.Errorf("%w: line too long", ErrProtocol)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func oracleParseRequest(r *bufio.Reader) (*Request, error) {
	line, err := oracleReadLine(r)
	if err != nil {
		return nil, err
	}
	fields := oracleSplitFields(line)
	if len(fields) == 0 {
		return nil, fmt.Errorf("%w: empty command", ErrProtocol)
	}
	switch string(fields[0]) {
	case "get":
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: get wants at least 1 key", ErrProtocol)
		}
		keys := make([]string, 0, len(fields)-1)
		for _, f := range fields[1:] {
			key := string(f)
			if !validKey(key) {
				return nil, fmt.Errorf("%w: invalid key", ErrProtocol)
			}
			keys = append(keys, key)
		}
		req := &Request{Op: OpGet, Key: keys[0]}
		if len(keys) > 1 {
			req.Keys = keys
		}
		return req, nil
	case "set":
		if len(fields) != 5 && len(fields) != 6 {
			return nil, fmt.Errorf("%w: set wants 4-5 args", ErrProtocol)
		}
		key := string(fields[1])
		if !validKey(key) {
			return nil, fmt.Errorf("%w: invalid key", ErrProtocol)
		}
		flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: bad flags: %v", ErrProtocol, err)
		}
		exp, err := strconv.ParseInt(string(fields[3]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad exptime: %v", ErrProtocol, err)
		}
		n, err := strconv.Atoi(string(fields[4]))
		if err != nil || n < 0 || n > MaxValueLen {
			return nil, fmt.Errorf("%w: bad byte count", ErrProtocol)
		}
		noreply := false
		if len(fields) == 6 {
			if string(fields[5]) != "noreply" {
				return nil, fmt.Errorf("%w: unexpected %q", ErrProtocol, fields[5])
			}
			noreply = true
		}
		value := make([]byte, n)
		if _, err := io.ReadFull(r, value); err != nil {
			return nil, fmt.Errorf("%w: short value: %v", ErrProtocol, err)
		}
		crlf := make([]byte, 2)
		if _, err := io.ReadFull(r, crlf); err != nil || crlf[0] != '\r' || crlf[1] != '\n' {
			return nil, fmt.Errorf("%w: value not CRLF-terminated", ErrProtocol)
		}
		return &Request{Op: OpSet, Key: key, Flags: uint32(flags), Exptime: exp, Value: value, NoReply: noreply}, nil
	case "delete":
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("%w: delete wants 1 key", ErrProtocol)
		}
		key := string(fields[1])
		if !validKey(key) {
			return nil, fmt.Errorf("%w: invalid key", ErrProtocol)
		}
		noreply := len(fields) == 3 && string(fields[2]) == "noreply"
		if len(fields) == 3 && !noreply {
			return nil, fmt.Errorf("%w: unexpected %q", ErrProtocol, fields[2])
		}
		return &Request{Op: OpDelete, Key: key, NoReply: noreply}, nil
	case "version":
		return &Request{Op: OpVersion}, nil
	case "stats":
		return &Request{Op: OpStats}, nil
	case "timing":
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: timing wants on|off", ErrProtocol)
		}
		switch string(fields[1]) {
		case "on":
			return &Request{Op: OpTiming, TimingOn: true}, nil
		case "off":
			return &Request{Op: OpTiming}, nil
		default:
			return nil, fmt.Errorf("%w: timing wants on|off, got %q", ErrProtocol, fields[1])
		}
	case "infer":
		if len(fields) != 3 {
			return nil, fmt.Errorf("%w: infer wants <in_tokens> <out_tokens>", ErrProtocol)
		}
		in, err := strconv.Atoi(string(fields[1]))
		if err != nil || !validTokens(in) {
			return nil, fmt.Errorf("%w: bad infer in_tokens %q", ErrProtocol, fields[1])
		}
		out, err := strconv.Atoi(string(fields[2]))
		if err != nil || !validTokens(out) {
			return nil, fmt.Errorf("%w: bad infer out_tokens %q", ErrProtocol, fields[2])
		}
		return &Request{Op: OpInfer, InTokens: in, OutTokens: out}, nil
	default:
		return nil, fmt.Errorf("%w: unknown command %q", ErrProtocol, fields[0])
	}
}

func oracleParseServerTiming(r *bufio.Reader) (*ServerTiming, error) {
	line, err := oracleReadLine(r)
	if err != nil {
		return nil, err
	}
	fields := oracleSplitFields(line)
	if len(fields) != 7 || !bytes.Equal(fields[0], []byte("ST")) {
		return nil, fmt.Errorf("%w: bad timing trailer %q", ErrProtocol, line)
	}
	var t ServerTiming
	for i, dst := range []*int64{&t.ParseNs, &t.StoreNs, &t.SerializeNs, &t.WriteNs, &t.GCNs, &t.SchedNs} {
		v, err := strconv.ParseInt(string(fields[i+1]), 10, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("%w: bad timing field %q", ErrProtocol, fields[i+1])
		}
		*dst = v
	}
	return &t, nil
}

func oracleParseResponse(r *bufio.Reader, op Op) (*Response, error) {
	switch op {
	case OpGet:
		var items []Item
		for {
			line, err := oracleReadLine(r)
			if err != nil {
				return nil, err
			}
			if bytes.Equal(line, []byte("END")) {
				break
			}
			fields := oracleSplitFields(line)
			if len(fields) != 4 || !bytes.Equal(fields[0], []byte("VALUE")) {
				return nil, fmt.Errorf("%w: bad get response %q", ErrProtocol, line)
			}
			flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("%w: bad flags", ErrProtocol)
			}
			n, err := strconv.Atoi(string(fields[3]))
			if err != nil || n < 0 || n > MaxValueLen {
				return nil, fmt.Errorf("%w: bad byte count", ErrProtocol)
			}
			value := make([]byte, n)
			if _, err := io.ReadFull(r, value); err != nil {
				return nil, fmt.Errorf("%w: short value: %v", ErrProtocol, err)
			}
			crlf := make([]byte, 2)
			if _, err := io.ReadFull(r, crlf); err != nil || crlf[0] != '\r' || crlf[1] != '\n' {
				return nil, fmt.Errorf("%w: value not CRLF-terminated", ErrProtocol)
			}
			items = append(items, Item{Key: string(fields[1]), Flags: uint32(flags), Value: value})
		}
		if len(items) == 0 {
			return &Response{Status: "END"}, nil
		}
		return &Response{
			Status: "VALUE",
			Key:    items[0].Key,
			Flags:  items[0].Flags,
			Value:  items[0].Value,
			Items:  items,
			Hit:    true,
		}, nil
	case OpSet, OpDelete, OpVersion, OpTiming, OpInfer:
		line, err := oracleReadLine(r)
		if err != nil {
			return nil, err
		}
		return &Response{Status: string(line)}, nil
	case OpStats:
		resp := &Response{Status: "END"}
		var body bytes.Buffer
		for {
			line, err := oracleReadLine(r)
			if err != nil {
				return nil, err
			}
			if bytes.Equal(line, []byte("END")) {
				break
			}
			body.Write(line)
			body.WriteByte('\n')
		}
		resp.Value = body.Bytes()
		return resp, nil
	default:
		return nil, fmt.Errorf("%w: unknown op %v", ErrProtocol, op)
	}
}
