package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"pamakv/internal/client"
	"pamakv/internal/proto"
)

// driverFactory maps -protocol to a per-worker Benchmarker constructor.
//
//   - pamakv: the repo's internal/client — pooled, pipelined, and (with
//     several -addrs) client-side sharded. This is the package under test.
//   - memc-txt: a deliberately minimal hand-rolled Memcached text client on
//     one connection — the neutral baseline every text-protocol server
//     (pamakv included) can be driven through.
//   - redis: a minimal RESP2 client (SET/GET/DEL/pipelined GET).
func driverFactory(cfg config) (factory, error) {
	switch cfg.protocol {
	case "pamakv":
		return func() (Benchmarker, error) { return newPamaBench(cfg) }, nil
	case "memc-txt":
		if len(cfg.addrs) != 1 {
			return nil, fmt.Errorf("memc-txt drives one server (got %d addrs)", len(cfg.addrs))
		}
		return func() (Benchmarker, error) { return newMemcText(cfg.addrs[0]) }, nil
	case "redis":
		if len(cfg.addrs) != 1 {
			return nil, fmt.Errorf("redis drives one server (got %d addrs)", len(cfg.addrs))
		}
		return func() (Benchmarker, error) { return newRespBench(cfg.addrs[0]) }, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q (want pamakv, memc-txt, or redis)", cfg.protocol)
	}
}

// pamaBench adapts internal/client. Each worker owns a single-connection
// client so the connection count matches the other drivers; the pipeline
// rides the package's zero-allocation batch path.
type pamaBench struct {
	c *client.Client
	p *client.Pipeline
}

func newPamaBench(cfg config) (*pamaBench, error) {
	c, err := client.New(client.Config{
		Addrs:    cfg.addrs,
		PoolSize: 1,
		Retries:  -1, // a benchmark reports failures, it does not paper over them
	})
	if err != nil {
		return nil, err
	}
	return &pamaBench{c: c, p: c.Pipeline()}, nil
}

func (b *pamaBench) Set(key string, value []byte) error { return b.c.Set(key, 0, 0, value) }

func (b *pamaBench) Get(key string) error {
	_, err := b.c.Get(key)
	return err
}

func (b *pamaBench) Delete(key string) error { return b.c.Delete(key) }

func (b *pamaBench) GetBatch(keys []string, errs []error) {
	for _, k := range keys {
		b.p.Get(k)
	}
	results, err := b.p.Exec()
	for i := range errs {
		errs[i] = err // only a closed client fails the batch as a whole
		if err == nil {
			errs[i] = results[i].Err
		}
	}
}

func (b *pamaBench) Close() error {
	b.c.Close()
	return nil
}

// lineErr maps an error reply line onto the Benchmarker vocabulary: the shed
// line is client.ErrServerBusy, any other line a failed operation.
func lineErr(l string) error {
	if l == "SERVER_ERROR "+proto.ShedMsg {
		return client.ErrServerBusy
	}
	return errors.New(l)
}

// memcText is the baseline text-protocol driver: one connection, one bufio
// pair, the simplest correct parse. It speaks to memcached and pama-server
// alike.
type memcText struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func newMemcText(addr string) (*memcText, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &memcText{nc: nc, r: bufio.NewReaderSize(nc, 1<<16), w: bufio.NewWriterSize(nc, 1<<16)}, nil
}

func (m *memcText) line() (string, error) {
	s, err := m.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// status reads a one-line reply to a store or delete: ok is success and
// NOT_FOUND a miss.
func (m *memcText) status(ok string) error {
	l, err := m.line()
	switch {
	case err != nil:
		return err
	case l == ok:
		return nil
	case l == "NOT_FOUND":
		return client.ErrCacheMiss
	}
	return lineErr(l)
}

func (m *memcText) Set(key string, value []byte) error {
	fmt.Fprintf(m.w, "set %s 0 0 %d\r\n", key, len(value))
	m.w.Write(value)
	m.w.WriteString("\r\n")
	if err := m.w.Flush(); err != nil {
		return err
	}
	return m.status("STORED")
}

func (m *memcText) Delete(key string) error {
	fmt.Fprintf(m.w, "delete %s\r\n", key)
	if err := m.w.Flush(); err != nil {
		return err
	}
	return m.status("DELETED")
}

func (m *memcText) Get(key string) error {
	var errs [1]error
	m.GetBatch([]string{key}, errs[:])
	return errs[0]
}

// readGet consumes one get response: a VALUE block then END (reply nil), a
// bare END (client.ErrCacheMiss) or an error line, which has no END after it.
// err reports a connection that can no longer be read in step.
func (m *memcText) readGet() (reply, err error) {
	reply = client.ErrCacheMiss
	for {
		l, err := m.line()
		if err != nil {
			return nil, err
		}
		switch {
		case l == "END":
			return reply, nil
		case strings.HasPrefix(l, "VALUE "):
			f := strings.Fields(l)
			if len(f) < 4 {
				return nil, fmt.Errorf("bad VALUE line %q", l)
			}
			n, err := strconv.Atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("bad VALUE length %q", l)
			}
			if _, err := m.r.Discard(n + 2); err != nil {
				return nil, err
			}
			reply = nil
		default:
			return lineErr(l), nil
		}
	}
}

func (m *memcText) GetBatch(keys []string, errs []error) {
	for _, k := range keys {
		m.w.WriteString("get ")
		m.w.WriteString(k)
		m.w.WriteString("\r\n")
	}
	err := m.w.Flush()
	for i := range errs {
		if err == nil {
			errs[i], err = m.readGet()
		}
		if err != nil {
			errs[i] = err
		}
	}
}

func (m *memcText) Close() error { return m.nc.Close() }

// respBench is a minimal RESP2 client: inline-free, bulk-string SET/GET/DEL,
// pipelined multi-GET. Enough protocol to benchmark redis and
// redis-compatible servers without pulling in a dependency.
type respBench struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

func newRespBench(addr string) (*respBench, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &respBench{nc: nc, r: bufio.NewReaderSize(nc, 1<<16), w: bufio.NewWriterSize(nc, 1<<16)}, nil
}

func (b *respBench) writeCmd(args ...[]byte) {
	fmt.Fprintf(b.w, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(b.w, "$%d\r\n", len(a))
		b.w.Write(a)
		b.w.WriteString("\r\n")
	}
}

func (b *respBench) line() (string, error) {
	s, err := b.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(s, "\r\n"), nil
}

// readReply consumes one RESP reply: a value, status or non-zero count
// (reply nil), a null bulk or a zero count (client.ErrCacheMiss) or an error
// reply. err reports a connection that can no longer be read in step.
func (b *respBench) readReply() (reply, err error) {
	l, err := b.line()
	if err != nil {
		return nil, err
	}
	if l == "" {
		return nil, fmt.Errorf("empty RESP line")
	}
	switch l[0] {
	case '+':
		return nil, nil
	case ':':
		if l == ":0" {
			return client.ErrCacheMiss, nil
		}
		return nil, nil
	case '-':
		return fmt.Errorf("redis: %s", l[1:]), nil
	case '$':
		n, err := strconv.Atoi(l[1:])
		if err != nil {
			return nil, fmt.Errorf("bad bulk length %q", l)
		}
		if n < 0 {
			return client.ErrCacheMiss, nil
		}
		if _, err := b.r.Discard(n + 2); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("unexpected RESP reply %q", l)
	}
}

// do sends one command and waits for its reply.
func (b *respBench) do(args ...[]byte) error {
	b.writeCmd(args...)
	if err := b.w.Flush(); err != nil {
		return err
	}
	reply, err := b.readReply()
	if err != nil {
		return err
	}
	return reply
}

func (b *respBench) Set(key string, value []byte) error {
	return b.do([]byte("SET"), []byte(key), value)
}

func (b *respBench) Get(key string) error { return b.do([]byte("GET"), []byte(key)) }

func (b *respBench) Delete(key string) error { return b.do([]byte("DEL"), []byte(key)) }

func (b *respBench) GetBatch(keys []string, errs []error) {
	for _, k := range keys {
		b.writeCmd([]byte("GET"), []byte(k))
	}
	err := b.w.Flush()
	for i := range errs {
		if err == nil {
			errs[i], err = b.readReply()
		}
		if err != nil {
			errs[i] = err
		}
	}
}

func (b *respBench) Close() error { return b.nc.Close() }
