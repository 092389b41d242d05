// Package trace defines the request-trace representation used throughout
// the repository: the in-memory Request record, a compact binary on-disk
// format with a CSV twin, a length limit, and the GET-miss→SET penalty
// estimator the paper applies to the Facebook traces.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"pamakv/internal/kv"
)

// Request is one trace record. Key is the numeric key id (kv.KeyString maps
// it to the engine's string keyspace); Size is the item's total footprint in
// bytes; Time is a logical timestamp in microseconds (0 when the source has
// no timing).
type Request struct {
	Op   kv.Op
	Key  uint64
	Size uint32
	Time uint64
}

// Stream produces requests one at a time; Next returns io.EOF at the end.
// All generators and readers in this repository implement Stream.
type Stream interface {
	Next() (Request, error)
}

// SliceStream serves requests from a slice (tests and small tools).
type SliceStream struct {
	Reqs []Request
	i    int
}

// Next implements Stream.
func (s *SliceStream) Next() (Request, error) {
	if s.i >= len(s.Reqs) {
		return Request{}, io.EOF
	}
	r := s.Reqs[s.i]
	s.i++
	return r, nil
}

// Collect drains up to limit requests from a stream (limit<0 means all).
func Collect(s Stream, limit int) ([]Request, error) {
	var out []Request
	for limit < 0 || len(out) < limit {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ---- Binary format ----
//
// Header: magic "PAMATRC1" (8 bytes). Records: fixed 21 bytes each,
// little-endian: op(1) key(8) size(4) time(8).

var magic = [8]byte{'P', 'A', 'M', 'A', 'T', 'R', 'C', '1'}

const recordSize = 21

// Writer streams requests to a binary trace.
type Writer struct {
	w   *bufio.Writer
	n   uint64
	err error
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (t *Writer) Write(r Request) error {
	if t.err != nil {
		return t.err
	}
	var buf [recordSize]byte
	buf[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(buf[1:], r.Key)
	binary.LittleEndian.PutUint32(buf[9:], r.Size)
	binary.LittleEndian.PutUint64(buf[13:], r.Time)
	if _, err := t.w.Write(buf[:]); err != nil {
		t.err = err
		return err
	}
	t.n++
	return nil
}

// Count returns records written.
func (t *Writer) Count() uint64 { return t.n }

// Flush drains buffered records to the underlying writer.
func (t *Writer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader streams requests from a binary trace; it implements Stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("trace: bad magic %q", got[:])
	}
	return &Reader{r: br}, nil
}

// Next implements Stream.
func (t *Reader) Next() (Request, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Request{}, io.EOF
		}
		return Request{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	op := kv.Op(buf[0])
	if op > kv.Delete {
		return Request{}, fmt.Errorf("trace: invalid op %d", buf[0])
	}
	return Request{
		Op:   op,
		Key:  binary.LittleEndian.Uint64(buf[1:]),
		Size: binary.LittleEndian.Uint32(buf[9:]),
		Time: binary.LittleEndian.Uint64(buf[13:]),
	}, nil
}

// ---- CSV format: op,key,size,time ----

// WriteCSV renders a stream as CSV with a header row.
func WriteCSV(w io.Writer, s Stream) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"op", "key", "size", "time_us"}); err != nil {
		return err
	}
	for {
		r, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		rec := []string{
			r.Op.String(),
			strconv.FormatUint(r.Key, 10),
			strconv.FormatUint(uint64(r.Size), 10),
			strconv.FormatUint(r.Time, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVReader streams requests from CSV produced by WriteCSV; it implements
// Stream.
type CSVReader struct {
	r      *csv.Reader
	header bool
}

// NewCSVReader wraps r.
func NewCSVReader(r io.Reader) *CSVReader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	return &CSVReader{r: cr}
}

// Next implements Stream.
func (c *CSVReader) Next() (Request, error) {
	for {
		rec, err := c.r.Read()
		if errors.Is(err, io.EOF) {
			return Request{}, io.EOF
		}
		if err != nil {
			return Request{}, err
		}
		if !c.header {
			c.header = true
			if rec[0] == "op" {
				continue
			}
		}
		var op kv.Op
		switch rec[0] {
		case "get":
			op = kv.Get
		case "set":
			op = kv.Set
		case "delete":
			op = kv.Delete
		default:
			return Request{}, fmt.Errorf("trace: unknown op %q", rec[0])
		}
		key, err := strconv.ParseUint(rec[1], 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("trace: bad key %q: %w", rec[1], err)
		}
		size, err := strconv.ParseUint(rec[2], 10, 32)
		if err != nil {
			return Request{}, fmt.Errorf("trace: bad size %q: %w", rec[2], err)
		}
		ts, err := strconv.ParseUint(rec[3], 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("trace: bad time %q: %w", rec[3], err)
		}
		return Request{Op: op, Key: key, Size: uint32(size), Time: ts}, nil
	}
}
