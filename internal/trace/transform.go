package trace

import "io"

// Limit truncates a stream after N requests.
type Limit struct {
	S Stream
	N uint64
	n uint64
}

// Next implements Stream.
func (l *Limit) Next() (Request, error) {
	if l.n >= l.N {
		return Request{}, io.EOF
	}
	r, err := l.S.Next()
	if err == nil {
		l.n++
	}
	return r, err
}
