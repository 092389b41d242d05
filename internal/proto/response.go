package proto

// maxResponseBlocks bounds VALUE/STAT accumulation in one response, so a
// misbehaving server cannot make a client allocate without bound.
const maxResponseBlocks = 1 << 16

// Value is one VALUE block of a retrieval response.
type Value struct {
	Key   string
	Flags uint32
	// CAS is the token from a gets reply; 0 when the block carried none.
	CAS  uint64
	Data []byte
}

// Response is one complete server reply, as a client sees it: the final
// status line plus any VALUE blocks and STAT lines that preceded it.
type Response struct {
	// Status is the terminating line's word, or StatusNumber for a bare
	// incr/decr result.
	Status Status
	// Message carries the remainder of an error or VERSION line.
	Message string
	// Number is the parsed result when Status == StatusNumber.
	Number uint64
	// Values collects the VALUE blocks of a get/gets reply.
	Values []Value
	// Stats collects STAT name/value pairs of a stats reply.
	Stats [][2]string
}
