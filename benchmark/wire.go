package main

// Memcached text protocol as the generator speaks it: request encoding, a
// reply reader, and the check of each reply against the stream's model. No
// pamakv/internal import (see gen.go).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

func appendKey(dst []byte, o op) []byte {
	c := byte('k')
	if o.cold {
		c = 'z'
	}
	return appendHex8(append(dst, c), o.id)
}

// appendRequest encodes o onto dst without allocating.
func (s *stream) appendRequest(dst []byte, o op) []byte {
	switch o.kind {
	case opSet:
		size := sizeOf(s.sp.sizes, o.id)
		dst = append(dst, "set "...)
		dst = appendKey(dst, o)
		dst = append(dst, " 0 0 "...)
		dst = strconv.AppendInt(dst, int64(size), 10)
		dst = append(dst, '\r', '\n')
		dst = appendValue(dst, o.id, o.ver, size)
	case opDelete:
		dst = appendKey(append(dst, "delete "...), o)
	default:
		dst = appendKey(append(dst, "get "...), o)
	}
	return append(dst, '\r', '\n')
}

// errDesync reports a reply the protocol does not allow where it arrived;
// the connection cannot be trusted after it, so the run stops.
var errDesync = errors.New("reply out of protocol")

// replyReader reads replies off one connection. Returned slices alias its
// buffers and are valid until the next read.
type replyReader struct {
	br   *bufio.Reader
	body []byte
}

func newReplyReader(r io.Reader) *replyReader {
	return &replyReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (rr *replyReader) line() ([]byte, error) {
	l, err := rr.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(l) < 2 || l[len(l)-2] != '\r' {
		return nil, fmt.Errorf("%w: line %q not CRLF-terminated", errDesync, l)
	}
	return l[:len(l)-2], nil
}

// get reads the reply to a single-key get: the value and true, or false on a
// miss. A SERVER_ERROR or CLIENT_ERROR line is returned as refused.
func (rr *replyReader) get(key []byte) (val []byte, hit bool, refused []byte, err error) {
	l, err := rr.line()
	if err != nil {
		return nil, false, nil, err
	}
	if string(l) == "END" {
		return nil, false, nil, nil
	}
	if !bytes.HasPrefix(l, []byte("VALUE ")) {
		if isRefusal(l) {
			return nil, false, append(rr.body[:0], l...), nil
		}
		return nil, false, nil, fmt.Errorf("%w: %q in reply to get", errDesync, l)
	}
	// "VALUE <key> <flags> <bytes>[ <cas>]", split without allocating.
	rest := l[len("VALUE "):]
	sp1 := bytes.IndexByte(rest, ' ')
	if sp1 < 0 || !bytes.Equal(rest[:sp1], key) {
		return nil, false, nil, fmt.Errorf("%w: %q in reply to get %s", errDesync, l, key)
	}
	rest = rest[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 < 0 {
		return nil, false, nil, fmt.Errorf("%w: %q has no length", errDesync, l)
	}
	rest = rest[sp2+1:]
	if sp3 := bytes.IndexByte(rest, ' '); sp3 >= 0 {
		rest = rest[:sp3]
	}
	n := 0
	for _, c := range rest {
		if c < '0' || c > '9' || n > 64<<20 {
			return nil, false, nil, fmt.Errorf("%w: bad length in %q", errDesync, l)
		}
		n = n*10 + int(c-'0')
	}
	if len(rest) == 0 {
		return nil, false, nil, fmt.Errorf("%w: bad length in %q", errDesync, l)
	}
	if n+2 <= rr.br.Size() {
		val, err = rr.br.Peek(n + 2)
		if err == nil {
			_, err = rr.br.Discard(n + 2)
		}
	} else {
		if cap(rr.body) < n+2 {
			rr.body = make([]byte, n+2)
		}
		val = rr.body[:n+2]
		_, err = io.ReadFull(rr.br, val)
	}
	if err != nil {
		return nil, false, nil, err
	}
	if val[n] != '\r' || val[n+1] != '\n' {
		return nil, false, nil, fmt.Errorf("%w: value of %s not CRLF-terminated", errDesync, key)
	}
	val = val[:n]
	// A peeked val aliases the bufio buffer, and reading the END line
	// refills (and so overwrites) that buffer unless the line is already
	// in it. Copy out in that case.
	if rr.br.Buffered() < len("END\r\n") && n+2 <= rr.br.Size() {
		rr.body = append(rr.body[:0], val...)
		val = rr.body
	}
	l, err = rr.line()
	if err != nil {
		return nil, false, nil, err
	}
	if string(l) != "END" {
		return nil, false, nil, fmt.Errorf("%w: %q after value of %s", errDesync, l, key)
	}
	return val, true, nil, nil
}

func isRefusal(l []byte) bool {
	return bytes.HasPrefix(l, []byte("SERVER_ERROR")) || bytes.HasPrefix(l, []byte("CLIENT_ERROR")) || string(l) == "ERROR"
}

// check reads the reply to o and compares it with the model. ok=false is a
// failed operation (wrong, missing or refused answer); err is a transport or
// framing failure after which the connection is unusable. hit reports a GET
// answered with a value.
func (s *stream) check(rr *replyReader, o op, keyBuf []byte) (ok, hit bool, err error) {
	s.checked++
	full := s.checked%sampleEvery == 0
	switch o.kind {
	case opSet:
		l, err := rr.line()
		if err != nil {
			return false, false, err
		}
		if string(l) != "STORED" {
			if isRefusal(l) || string(l) == "NOT_STORED" {
				return false, false, nil
			}
			return false, false, fmt.Errorf("%w: %q in reply to set", errDesync, l)
		}
		switch s.sp.values {
		case valueVersioned:
			s.ver[o.id-s.base] = o.ver
		case valueLearned:
			if i := o.id - s.base; i%sampleEvery == 0 {
				s.setVer[i/sampleEvery] = o.ver
			}
		}
		return true, false, nil
	case opDelete:
		l, err := rr.line()
		if err != nil {
			return false, false, err
		}
		if string(l) != "DELETED" && string(l) != "NOT_FOUND" {
			if isRefusal(l) {
				return false, false, nil
			}
			return false, false, fmt.Errorf("%w: %q in reply to delete", errDesync, l)
		}
		switch s.sp.values {
		case valueVersioned:
			s.ver[o.id-s.base] = 0
		case valueLearned:
			if i := o.id - s.base; i%sampleEvery == 0 {
				s.setVer[i/sampleEvery] = 0
			}
		}
		return true, false, nil
	}
	key := appendKey(keyBuf[:0], o)
	val, hit, refused, err := rr.get(key)
	if err != nil {
		return false, false, err
	}
	if refused != nil {
		return false, false, nil
	}
	switch s.sp.values {
	case valuePure:
		return hit && valueMatches(val, o.id, 0, sizeOf(s.sp.sizes, o.id), full), hit, nil
	case valueVersioned:
		want := s.ver[o.id-s.base]
		if !hit {
			return true, false, nil // evicted, or never written
		}
		return want != 0 && valueMatches(val, o.id, want, sizeOf(s.sp.sizes, o.id), full), true, nil
	}
	// valueLearned: the read-through server answers every GET.
	if !hit {
		return false, false, nil
	}
	if o.cold {
		return true, true, nil
	}
	i := o.id - s.base
	if i%sampleEvery != 0 {
		return true, true, nil
	}
	i /= sampleEvery
	if v := s.setVer[i]; v != 0 && valueMatches(val, o.id, v, sizeOf(s.sp.sizes, o.id), true) {
		return true, true, nil
	}
	sum := checksum(val)
	if s.backend[i] == 0 {
		s.backend[i] = sum
		return true, true, nil
	}
	return s.backend[i] == sum, true, nil
}
