// Package proto implements the subset of the Memcached ASCII protocol the
// pama-server speaks: get/gets, the storage commands (set, add, replace,
// append, prepend, cas), delete, incr/decr, touch, stats, flush_all,
// version, and quit. It contains only framing — command parsing and
// response rendering — so the server, the client package, and test clients
// share one codec.
package proto

import (
	"errors"
	"fmt"
	"strconv"
)

// Limits mirror Memcached's.
const (
	// MaxKeyLen is the longest accepted key.
	MaxKeyLen = 250
	// MaxDataLen bounds a single value (1 MiB, one slab).
	MaxDataLen = 1 << 20
	// MaxLineLen bounds one command or response line (big enough for a
	// multi-key get of ~30 max-length keys). Longer lines indicate a
	// malformed or malicious peer; without the cap a newline-free stream
	// would grow the line buffer without bound.
	MaxLineLen = 8192
)

// ErrLineTooLong reports a line exceeding MaxLineLen. Framing is lost at
// that point, so servers reply CLIENT_ERROR and close the connection rather
// than resynchronize.
var ErrLineTooLong = errors.New("proto: line exceeds maximum length")

// Command is one parsed client request.
type Command struct {
	// Verb is the command word.
	Verb Verb
	// Keys are the operand keys (get and gets may carry several).
	Keys []string
	// Flags, Exptime, and Bytes carry a storage command's parameters
	// (Exptime also touch's).
	Flags   uint32
	Exptime int64
	Bytes   int
	// CasID carries cas's token operand.
	CasID uint64
	// Delta carries incr/decr's operand.
	Delta uint64
	// NoReply suppresses the response (keyed verbs other than reads).
	NoReply bool
	// Data is a storage command's data block.
	Data []byte
}

// ClientError is a malformed-request error; the server reports it with
// CLIENT_ERROR and keeps the connection open. Err, when non-nil, preserves
// the underlying I/O cause (e.g. a read deadline expiring inside a data
// block) so servers can tell a slow client from a malformed one.
type ClientError struct {
	Msg string
	Err error
}

// Error implements error.
func (e *ClientError) Error() string { return "proto: " + e.Msg }

// Unwrap exposes the underlying cause for errors.Is checks.
func (e *ClientError) Unwrap() error { return e.Err }

func clientErrf(format string, args ...any) error {
	return &ClientError{Msg: fmt.Sprintf(format, args...)}
}

// CheckKey validates a key against the protocol's constraints — non-empty,
// at most MaxKeyLen bytes, no space or control bytes. Clients call it before
// rendering a request: a key with an embedded space or newline would not
// just be rejected, it would desynchronize the connection's framing.
func CheckKey(key string) error { return checkKey(key) }

// checkKey validates one key operand; it accepts both the reference
// parser's string tokens and the in-place parser's byte views.
//
// '/' is the tenant namespace separator (see internal/tenant): a leading
// separator would name an empty tenant, and a second one would make the
// tenant/rest split ambiguous, so both are protocol errors. A single
// interior separator — including a trailing one ("t/") — is a well-formed
// qualified key whether or not the server runs multi-tenant.
func checkKey[T ~string | ~[]byte](k T) error {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return clientErrf("key length %d outside (0,%d]", len(k), MaxKeyLen)
	}
	sep := -1
	for i := 0; i < len(k); i++ {
		switch {
		case k[i] <= ' ' || k[i] == 0x7f:
			return clientErrf("key contains control or space byte")
		case k[i] == '/':
			if i == 0 {
				return clientErrf("key has an empty tenant prefix")
			}
			if sep >= 0 {
				return clientErrf("key has a second tenant separator")
			}
			sep = i
		}
	}
	return nil
}

// Response rendering helpers. All append to dst and return it.

// AppendValue renders one VALUE block of a get response.
func AppendValue(dst []byte, key string, flags uint32, data []byte) []byte {
	return append(append(AppendValueHeader(dst, key, flags, len(data), false, 0), data...), '\r', '\n')
}

// AppendValueHeader renders the header line of a VALUE block whose n-byte
// body, then CRLF, the caller writes after it; a gets block (withCAS)
// carries cas. Every VALUE block is rendered through it.
func AppendValueHeader[K string | []byte](dst []byte, key K, flags uint32, n int, withCAS bool, cas uint64) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(n), 10)
	if withCAS {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cas, 10)
	}
	return append(dst, '\r', '\n')
}

// AppendEnd terminates a get or stats response.
func AppendEnd(dst []byte) []byte { return AppendStatus(dst, StatusEnd) }

// AppendNumberLine renders an incr/decr result line without allocating.
func AppendNumberLine(dst []byte, n uint64) []byte {
	dst = strconv.AppendUint(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendLine appends s + CRLF.
func AppendLine(dst []byte, s string) []byte {
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendStat renders one STAT line.
func AppendStat(dst []byte, name string, value any) []byte {
	return AppendLine(dst, fmt.Sprintf("STAT %s %v", name, value))
}
